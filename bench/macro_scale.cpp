// Out-of-core corpus scale bench: generate, train and predict over a
// feature matrix that is never fully resident.
//
// Flow (order matters — ru_maxrss is a process-lifetime high-water mark,
// so the streaming phases run BEFORE any resident control work and the
// recorded peak belongs to the out-of-core path):
//
//   fit        freeze the extractor vocabularies on a small seed cohort
//              (first <=128 authors), exactly what corpus generation pins
//              into the matrix metaHash,
//   generate   buildYearMatrix(): sharded render+extract on the runtime
//              pool, crash-safe segments, deterministic merge,
//   hash       matrixContentHash() over the final file (block-resident),
//              recorded as the stable counter scale_matrix_hash — equal
//              bytes across shard sizes / thread counts / crash-resume
//              cycles <=> equal counter,
//   train      RandomForest on an index VIEW of the first train-authors'
//              rows (no row copies; the view reads the mmap directly),
//   predict    streaming predictAll over the full matrix under the
//              residency budget; the fold of every vote is recorded as
//              the stable counter scale_pred_hash,
//   control    a strided sample of rows copied into an owned dataset and
//              predicted through the resident path.
//
// Hard assertions (exit 1):
//   * every control prediction is identical to the streaming prediction
//     of the same row — the out-of-core path changes where bytes live,
//     never what is computed;
//   * when the matrix is big enough for the comparison to mean anything
//     (>= 16 MiB on disk), the streaming peak RSS is strictly below the
//     estimated footprint of holding the corpus as owned rows — the bench
//     fails if out-of-core stops being cheaper than resident.
//
// The peak lands in the manifest via rusage_max_rss_kb, so
// `sca_cli history check` flags an RSS regression across runs the same
// way it flags a slowdown. SCA_SCALE_CRASH_SHARDS injects a mid-build
// crash (nonzero exit, segments left behind) for the resume smoke test.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus/authors.hpp"
#include "corpus/challenges.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "ml/dataset.hpp"
#include "ml/matrix.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace sca;

constexpr int kYear = 2017;
constexpr std::size_t kFitAuthors = 128;    // vocabulary seed cohort
constexpr std::size_t kControlRows = 4096;  // resident-control sample cap
constexpr std::size_t kRssCheckFloorBytes = std::size_t{16} << 20;

std::size_t envSize(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  return end != raw && parsed > 0 ? static_cast<std::size_t>(parsed)
                                  : fallback;
}

std::string mb(std::size_t bytes) {
  return util::formatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0),
                            1);
}

/// Lifetime high-water RSS in KB as getrusage reports it right now.
double peakRssKb() {
  obs::recordProcessRusage();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  const auto it = snapshot.gauges.find("rusage_max_rss_kb");
  return it == snapshot.gauges.end() ? 0.0 : it->second;
}

}  // namespace

int main() {
  bench::Session session("macro_scale");

  const std::size_t authorCount = envSize("SCA_SCALE_AUTHORS", 50000);
  // Each generating worker holds its shard's rows until the segment is
  // written, so the streaming peak grows with shard size times threads.
  // A sixteenth of the corpus keeps that working set well below the
  // resident footprint the RSS assertion compares against; a 2,048-author
  // shard at 4,000 authors held half the corpus per worker and failed it.
  const std::size_t shardSize = envSize(
      "SCA_SCALE_SHARD", std::clamp<std::size_t>(authorCount / 16, 64, 2048));
  const std::size_t budgetBytes = envSize("SCA_SCALE_BUDGET_MB", 64) << 20;
  const std::size_t trainAuthors =
      std::min(envSize("SCA_SCALE_TRAIN_AUTHORS", 256), authorCount);
  const std::size_t treeCount = envSize("SCA_SCALE_TREES", 16);
  std::string outDir = "bench_out/scale";
  if (const char* dir = std::getenv("SCA_SCALE_DIR");
      dir != nullptr && *dir != '\0') {
    outDir = dir;
  }

  const std::vector<const corpus::Challenge*> challenges =
      corpus::challengesForYear(kYear);

  // Vocabulary fit on the seed cohort. transformUncached is the extraction
  // path generation uses, but fitting itself is tiny (<=128 authors) and
  // deterministic in (year, cohort size) only.
  features::FeatureExtractor extractor;
  {
    obs::Span phase("scale_fit", obs::kPhaseCategory);
    const std::vector<corpus::Author> seed = corpus::makeAuthorPopulation(
        kYear, std::min(authorCount, kFitAuthors));
    std::vector<std::string> sources;
    sources.reserve(seed.size() * challenges.size());
    for (const corpus::Author& author : seed) {
      for (std::size_t c = 0; c < challenges.size(); ++c) {
        sources.push_back(corpus::renderSolution(author, *challenges[c],
                                                 kYear,
                                                 static_cast<int>(c)));
      }
    }
    extractor.fit(sources);
  }

  corpus::ScaleConfig config;
  config.year = kYear;
  config.authorCount = authorCount;
  config.outDir = outDir;
  config.shardSize = shardSize;
  config.crashAfterShards = envSize("SCA_SCALE_CRASH_SHARDS", 0);

  corpus::ScaleBuildResult build;
  {
    obs::Span phase("scale_generate", obs::kPhaseCategory);
    util::Result<corpus::ScaleBuildResult> result =
        corpus::buildYearMatrix(extractor, config);
    if (!result.ok()) {
      // Injected crashes land here too — nonzero exit, partial manifest,
      // segments left behind for the resume run.
      std::cerr << "macro_scale: generation failed: "
                << result.status().toString() << "\n";
      return 3;
    }
    build = result.value();
  }

  util::Result<ml::MatrixFile> opened = ml::MatrixFile::open(
      build.matrixPath,
      corpus::yearMatrixMetaHash(extractor, kYear, authorCount));
  if (!opened.ok()) {
    std::cerr << "macro_scale: reopen failed: "
              << opened.status().toString() << "\n";
    return 1;
  }
  const ml::MatrixFile file = std::move(opened.value());
  file.setResidencyBudget(budgetBytes);

  std::uint64_t matrixHash = 0;
  {
    obs::Span phase("scale_hash", obs::kPhaseCategory);
    matrixHash = ml::matrixContentHash(file);
  }
  obs::MetricsRegistry::global().counter("scale_matrix_hash").add(matrixHash);

  const ml::Dataset full = ml::Dataset::fromMatrix(file);
  std::vector<std::size_t> trainIdx(trainAuthors * challenges.size());
  for (std::size_t i = 0; i < trainIdx.size(); ++i) trainIdx[i] = i;
  const ml::Dataset trainView = full.subsetView(trainIdx);

  ml::ForestConfig forestConfig;
  forestConfig.treeCount = treeCount;
  forestConfig.seed = util::hash64("macro-scale-forest");
  ml::RandomForest forest(forestConfig);
  {
    obs::Span phase("scale_train", obs::kPhaseCategory);
    forest.fit(trainView);
  }

  std::vector<int> streamed;
  {
    obs::Span phase("scale_predict_stream", obs::kPhaseCategory);
    streamed = forest.predictAll(full);
  }
  std::uint64_t predHash = util::hash64("scale-pred-v1");
  for (const int vote : streamed) {
    predHash = util::combine64(predHash, static_cast<std::uint64_t>(vote));
  }
  obs::MetricsRegistry::global().counter("scale_pred_hash").add(predHash);

  std::size_t trainHits = 0;
  for (const std::size_t i : trainIdx) {
    if (streamed[i] == full.y[i]) ++trainHits;
  }

  // Streaming peak, sampled BEFORE any resident work touches memory.
  const double streamPeakKb = peakRssKb();
  const std::size_t streamPeakBytes =
      static_cast<std::size_t>(streamPeakKb) * 1024;
  // What holding the corpus as owned rows would cost: payload plus
  // per-row vector bookkeeping (heap header + size/capacity/pointer).
  const std::size_t residentEstimate =
      full.size() * (file.cols() * sizeof(double) + 48);

  // Resident control: strided row sample, copied into owned storage,
  // predicted through the non-streaming path.
  std::vector<std::size_t> controlIdx;
  {
    const std::size_t stride =
        std::max<std::size_t>(1, full.size() / kControlRows);
    for (std::size_t i = 0; i < full.size(); i += stride) {
      controlIdx.push_back(i);
    }
  }
  std::size_t controlMismatches = 0;
  {
    obs::Span phase("scale_control", obs::kPhaseCategory);
    const ml::Dataset control = full.subset(controlIdx);
    const std::vector<int> controlPreds = forest.predictAll(control);
    for (std::size_t j = 0; j < controlIdx.size(); ++j) {
      if (controlPreds[j] != streamed[controlIdx[j]]) ++controlMismatches;
    }
  }

  const bool rssCheckActive = file.fileBytes() >= kRssCheckFloorBytes;
  const bool rssBoundOk =
      !rssCheckActive || streamPeakBytes < residentEstimate;

  util::TablePrinter table(
      "macro_scale: out-of-core corpus generate / train / predict");
  table.setHeader({"metric", "value"});
  table.addRow({"authors", std::to_string(authorCount)});
  table.addRow({"rows", std::to_string(build.rows)});
  table.addRow({"cols", std::to_string(build.cols)});
  table.addRow({"matrix_mb", mb(file.fileBytes())});
  table.addRow({"shards", std::to_string(build.shardCount)});
  table.addRow({"fresh_shards", std::to_string(build.freshShards)});
  table.addRow({"resumed_shards", std::to_string(build.resumedShards)});
  table.addRow({"reused_final", bench::mark(build.reusedFinal)});
  table.addRow({"train_authors", std::to_string(trainAuthors)});
  table.addRow({"train_acc_pct",
                bench::pct(static_cast<double>(trainHits) /
                           static_cast<double>(trainIdx.size()))});
  table.addSeparator();
  table.addRow({"stream_peak_rss_mb", mb(streamPeakBytes)});
  table.addRow({"resident_estimate_mb", mb(residentEstimate)});
  table.addRow({"rss_bound",
                rssCheckActive ? bench::mark(rssBoundOk) : "skipped"});
  table.addRow({"control_rows", std::to_string(controlIdx.size())});
  table.addRow({"control_identical", bench::mark(controlMismatches == 0)});
  if (!bench::emit(table, "macro_scale")) return 1;

  if (controlMismatches != 0) {
    std::cerr << "macro_scale: FAIL: " << controlMismatches << "/"
              << controlIdx.size()
              << " resident-control predictions diverge from the "
                 "streaming path\n";
    return 1;
  }
  if (!rssBoundOk) {
    std::cerr << "macro_scale: FAIL: streaming peak RSS ("
              << mb(streamPeakBytes) << " MB) is not below the resident "
              << "estimate (" << mb(residentEstimate) << " MB)\n";
    return 1;
  }

  session.complete();
  return 0;
}
