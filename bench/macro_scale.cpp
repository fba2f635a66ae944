// Out-of-core corpus scale bench: generate a feature matrix that is never
// fully resident, then train and predict over it.
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
//   train      RandomForest on an owned copy of the first train-authors'
//              rows, whose pages are dropped once copied,
//   predict    the full matrix in ~8 MiB row blocks, each copied out and
//              predicted with predictAll(rows), its pages dropped as the
//              block reader advances; the fold of every vote is recorded
//              as the stable counter scale_pred_hash,
//   control    a strided sample of rows, copied out in a second block pass
//              and predicted in one call.
//
// Hard assertions (exit 1):
//   * every control prediction is identical to the streaming prediction
//     of the same row — how rows are batched and where they are read
//     from never changes what is computed;
//   * when the matrix is big enough for the comparison to mean anything
//     (>= 16 MiB on disk), the streaming peak RSS is strictly below the
//     estimated footprint of holding the corpus as owned rows — the bench
//     fails if out-of-core stops being cheaper than resident.
//
// The peak lands in the manifest via rusage_max_rss_kb, so
// `sca_cli history check` flags an RSS regression across runs the same
// way it flags a slowdown. SCA_SCALE_CRASH_SHARDS injects a mid-build
// crash (nonzero exit, segments left behind) for the resume smoke test.
// A malformed SCA_SCALE_* number exits 2 before any work.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <span>
#include <stdexcept>
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
  corpus::ScaleConfig config;
  config.year = kYear;
  std::size_t trainAuthors = 0;
  std::size_t treeCount = 0;
  try {
    config.authorCount = util::envSize("SCA_SCALE_AUTHORS", 50000);
    // Shards are the unit of pool parallelism and of resume after a crash.
    // A sixteenth of the corpus gives every worker several shards to
    // balance, and a crash loses at most the shards in flight. Segments
    // stream to disk author by author, so a worker holds one author's
    // rows, not its shard.
    config.shardSize = util::envSize(
        "SCA_SCALE_SHARD",
        std::clamp<std::size_t>(config.authorCount / 16, 64, 2048));
    trainAuthors = std::min(util::envSize("SCA_SCALE_TRAIN_AUTHORS", 256),
                            config.authorCount);
    treeCount = util::envSize("SCA_SCALE_TREES", 16);
    config.crashAfterShards = util::envSize("SCA_SCALE_CRASH_SHARDS", 0);
  } catch (const std::invalid_argument& e) {
    std::cerr << "macro_scale: " << e.what() << "\n";
    return 2;
  }
  config.outDir = "bench_out/scale";
  if (const char* dir = std::getenv("SCA_SCALE_DIR");
      dir != nullptr && *dir != '\0') {
    config.outDir = dir;
  }
  bench::Session session("macro_scale");

  const std::vector<const corpus::Challenge*> challenges =
      corpus::challengesForYear(kYear);

  // Vocabulary fit on the seed cohort. transformUncached is the extraction
  // path generation uses, but fitting itself is tiny (<=128 authors) and
  // deterministic in (year, cohort size) only.
  features::FeatureExtractor extractor;
  {
    obs::Span phase("scale_fit", obs::kPhaseCategory);
    const std::vector<corpus::Author> seed = corpus::makeAuthorPopulation(
        kYear, std::min(config.authorCount, kFitAuthors));
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
      corpus::yearMatrixMetaHash(extractor, kYear, config.authorCount));
  if (!opened.ok()) {
    std::cerr << "macro_scale: reopen failed: "
              << opened.status().toString() << "\n";
    return 1;
  }
  const ml::MatrixFile file = std::move(opened.value());

  std::uint64_t matrixHash = 0;
  {
    obs::Span phase("scale_hash", obs::kPhaseCategory);
    matrixHash = ml::matrixContentHash(file);
  }
  obs::MetricsRegistry::global().counter("scale_matrix_hash").add(matrixHash);

  ml::ForestConfig forestConfig;
  forestConfig.treeCount = treeCount;
  forestConfig.seed = util::hash64("macro-scale-forest");
  ml::RandomForest forest(forestConfig);
  ml::Dataset train;
  {
    obs::Span phase("scale_train", obs::kPhaseCategory);
    for (std::size_t i = 0; i < trainAuthors * challenges.size(); ++i) {
      const std::span<const double> row = file.row(i);
      train.x.emplace_back(row.begin(), row.end());
      train.y.push_back(file.label(i));
    }
    file.dropResidency();
    forest.fit(train);
  }

  // Row blocks of ~8 MiB of payload; the reader drops each block's pages
  // when it advances.
  const std::size_t rowsPerBlock = std::max<std::size_t>(
      1, (std::size_t{8} << 20) / (file.cols() * sizeof(double)));
  std::vector<int> streamed;
  {
    obs::Span phase("scale_predict_stream", obs::kPhaseCategory);
    streamed.reserve(file.rows());
    std::vector<std::vector<double>> rows;
    ml::RowBlockReader blocks(file, rowsPerBlock);
    while (blocks.next()) {
      rows.resize(blocks.endRow() - blocks.beginRow());
      for (std::size_t i = blocks.beginRow(); i < blocks.endRow(); ++i) {
        const std::span<const double> row = blocks.row(i);
        rows[i - blocks.beginRow()].assign(row.begin(), row.end());
      }
      const std::vector<int> votes = forest.predictAll(rows);
      streamed.insert(streamed.end(), votes.begin(), votes.end());
    }
  }
  std::uint64_t predHash = util::hash64("scale-pred-v1");
  for (const int vote : streamed) {
    predHash = util::combine64(predHash, static_cast<std::uint64_t>(vote));
  }
  obs::MetricsRegistry::global().counter("scale_pred_hash").add(predHash);

  std::size_t trainHits = 0;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (streamed[i] == train.y[i]) ++trainHits;
  }

  // Streaming peak, sampled BEFORE any resident work touches memory.
  const double streamPeakKb = peakRssKb();
  const std::size_t streamPeakBytes =
      static_cast<std::size_t>(streamPeakKb) * 1024;
  // What holding the corpus as owned rows would cost: payload plus
  // per-row vector bookkeeping (heap header + size/capacity/pointer).
  const std::size_t residentEstimate =
      file.rows() * (file.cols() * sizeof(double) + 48);

  // Resident control: a strided row sample, copied out in a second block
  // pass and predicted in one call.
  std::vector<std::size_t> controlIdx;
  {
    const std::size_t stride =
        std::max<std::size_t>(1, file.rows() / kControlRows);
    for (std::size_t i = 0; i < file.rows(); i += stride) {
      controlIdx.push_back(i);
    }
  }
  std::size_t controlMismatches = 0;
  {
    obs::Span phase("scale_control", obs::kPhaseCategory);
    std::vector<std::vector<double>> control;
    control.reserve(controlIdx.size());
    ml::RowBlockReader blocks(file, rowsPerBlock);
    while (blocks.next()) {
      while (control.size() < controlIdx.size() &&
             controlIdx[control.size()] < blocks.endRow()) {
        const std::span<const double> row =
            blocks.row(controlIdx[control.size()]);
        control.emplace_back(row.begin(), row.end());
      }
    }
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
  table.addRow({"authors", std::to_string(config.authorCount)});
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
                           static_cast<double>(train.size()))});
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
