#include "corpus/dataset.hpp"

#include <atomic>
#include <filesystem>
#include <span>

#include "features/extractor.hpp"
#include "ml/matrix.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "style/apply.hpp"
#include "style/infer.hpp"
#include "util/rng.hpp"

namespace sca::corpus {

/// Real authors are not machines: individual solutions deviate from the
/// author's habitual style on the odd dimension (an unusual one-liner, a
/// skipped comment, a different loop form). This per-sample wobble is what
/// keeps the simulated attribution task at the paper's difficulty level
/// (fold accuracies in the 80-95% band rather than near-perfect).
constexpr double kStyleWobble = 0.025;

std::string renderSolution(const Author& author, const Challenge& challenge,
                           int year, int challengeIndex) {
  // Per-sample stream: naming synonym draws and comment placement vary a
  // little across an author's challenges (as they do for real authors),
  // while profile-level dimensions stay fixed up to the wobble.
  util::Rng rng(util::combine64(
      util::hash64("gcj-sample"),
      util::combine64(static_cast<std::uint64_t>(year),
                      util::combine64(static_cast<std::uint64_t>(author.id),
                                      static_cast<std::uint64_t>(challengeIndex)))));
  util::Rng wobbleRng = rng.derive("wobble");
  const style::StyleProfile sampleProfile =
      style::mutateProfile(author.profile, wobbleRng, kStyleWobble);
  return style::applyStyle(challenge.ir, sampleProfile, rng);
}

YearDataset buildYearDataset(int year, std::size_t authorCount) {
  YearDataset ds;
  ds.year = year;
  ds.authors = makeAuthorPopulation(year, authorCount);
  ds.challenges = challengesForYear(year);
  ds.samples.reserve(ds.authors.size() * ds.challenges.size());
  for (const Author& author : ds.authors) {
    for (std::size_t c = 0; c < ds.challenges.size(); ++c) {
      CodeSample sample;
      sample.source = renderSolution(author, *ds.challenges[c], year,
                                     static_cast<int>(c));
      sample.authorId = author.id;
      sample.challengeIndex = static_cast<int>(c);
      sample.origin = "human";
      ds.samples.push_back(std::move(sample));
    }
  }
  return ds;
}

// ----------------------------------------------------- out-of-core scale --

namespace {

namespace fs = std::filesystem;

/// Everything the final bytes depend on, folded into one pin. The shard
/// layout is deliberately NOT part of it: the same (extractor, year,
/// authors) must produce the same final file no matter how generation was
/// sharded or resumed.
std::uint64_t extractorSchemaHash(const features::FeatureExtractor& ex) {
  std::uint64_t h = util::hash64("sca-extractor-schema-v1");
  h = util::combine64(h, ex.dimension());
  // Feature names embed the frozen vocabularies ("uni:" / "bi:" columns),
  // so hashing the schema covers them too.
  for (const std::string& name : ex.featureNames()) {
    h = util::combine64(h, util::hash64(name));
  }
  return h;
}

std::string segmentPath(const std::string& outDir, int year,
                        std::size_t beginAuthor, std::size_t endAuthor) {
  return outDir + "/seg_y" + std::to_string(year) + "_a" +
         std::to_string(beginAuthor) + "_" + std::to_string(endAuthor) +
         ".mtx";
}

std::string finalMatrixPath(const std::string& outDir, int year,
                            std::size_t authorCount) {
  return outDir + "/year_" + std::to_string(year) + "_authors_" +
         std::to_string(authorCount) + ".mtx";
}

}  // namespace

std::uint64_t yearMatrixMetaHash(const features::FeatureExtractor& extractor,
                                 int year, std::size_t authorCount) {
  return util::combine64(
      util::hash64("sca-corpus-matrix-v1"),
      util::combine64(static_cast<std::uint64_t>(year),
                      util::combine64(authorCount,
                                      extractorSchemaHash(extractor))));
}

util::Result<ScaleBuildResult> buildYearMatrix(
    const features::FeatureExtractor& extractor, const ScaleConfig& config) {
  if (config.outDir.empty()) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "buildYearMatrix: outDir required");
  }
  if (config.authorCount == 0 || config.shardSize == 0) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "buildYearMatrix: authorCount/shardSize must be > 0");
  }
  const std::vector<const Challenge*> challenges =
      challengesForYear(config.year);
  const std::size_t perAuthor = challenges.size();
  const std::size_t rows = config.authorCount * perAuthor;
  const std::size_t cols = extractor.dimension();
  const std::uint64_t finalMeta =
      yearMatrixMetaHash(extractor, config.year, config.authorCount);
  const std::string finalPath =
      finalMatrixPath(config.outDir, config.year, config.authorCount);

  std::error_code ec;
  fs::create_directories(config.outDir, ec);

  ScaleBuildResult result;
  result.matrixPath = finalPath;
  result.rows = rows;
  result.cols = cols;
  result.metaHash = finalMeta;
  result.shardCount =
      (config.authorCount + config.shardSize - 1) / config.shardSize;

  const auto removeSegments = [&] {
    std::error_code removeEc;
    for (std::size_t shard = 0; shard < result.shardCount; ++shard) {
      const std::size_t beginAuthor = shard * config.shardSize;
      const std::size_t endAuthor =
          std::min(config.authorCount, beginAuthor + config.shardSize);
      fs::remove(
          segmentPath(config.outDir, config.year, beginAuthor, endAuthor),
          removeEc);
    }
  };

  // A finished final file short-circuits everything (including segment
  // cleanup a previous crash may have skipped).
  if (auto done = ml::MatrixFile::open(finalPath, finalMeta);
      done.ok() && done.value().rows() == rows) {
    result.reusedFinal = true;
    removeSegments();
    return result;
  }

  // How much work this run does depends on what a previous (possibly
  // crashed) run left behind — runtime-class by definition.
  static obs::Counter shardsBuilt = obs::MetricsRegistry::global().counter(
      "corpus_shards_built", obs::Stability::kRuntime);
  static obs::Counter shardsResumed = obs::MetricsRegistry::global().counter(
      "corpus_shards_resumed", obs::Stability::kRuntime);

  const std::vector<Author> authors =
      makeAuthorPopulation(config.year, config.authorCount);

  // Phase 1: render + extract, one segment per author-range shard, in
  // parallel. Segment bytes depend only on the shard's author range, so a
  // reusable segment from a crashed run is byte-equal to a rebuilt one.
  std::atomic<std::size_t> fresh{0};
  std::atomic<std::size_t> resumed{0};
  std::atomic<bool> crashed{false};
  std::vector<util::Status> shardStatus(result.shardCount);
  runtime::parallelFor(0, result.shardCount, [&](std::size_t shard) {
    const std::size_t beginAuthor = shard * config.shardSize;
    const std::size_t endAuthor =
        std::min(config.authorCount, beginAuthor + config.shardSize);
    const std::string segPath =
        segmentPath(config.outDir, config.year, beginAuthor, endAuthor);
    const std::uint64_t segMeta =
        util::combine64(finalMeta, util::combine64(beginAuthor, endAuthor));
    const std::size_t segRows = (endAuthor - beginAuthor) * perAuthor;
    if (auto existing = ml::MatrixFile::open(segPath, segMeta);
        existing.ok() && existing.value().rows() == segRows) {
      resumed.fetch_add(1, std::memory_order_relaxed);
      shardsResumed.add();
      return;
    }
    if (crashed.load(std::memory_order_relaxed)) return;

    // The segment streams out one author at a time, so a worker holds one
    // author's rows, not its whole shard.
    ml::MatrixStreamWriter writer(segPath, segRows, cols, segMeta);
    std::vector<double> values;
    std::vector<std::int32_t> labels;
    std::vector<std::int32_t> groups(perAuthor);
    for (std::size_t c = 0; c < perAuthor; ++c) {
      groups[c] = static_cast<std::int32_t>(c);
    }
    for (std::size_t a = beginAuthor; a < endAuthor; ++a) {
      values.clear();
      for (std::size_t c = 0; c < perAuthor; ++c) {
        const std::string source =
            renderSolution(authors[a], *challenges[c], config.year,
                           static_cast<int>(c));
        // Cache-bypassing extraction: each of the 10^5+ sources is seen
        // exactly once; memoizing them would hoard the matrix in RAM.
        const std::vector<double> row = extractor.transformUncached(source);
        values.insert(values.end(), row.begin(), row.end());
      }
      labels.assign(perAuthor, authors[a].id);
      shardStatus[shard] = writer.appendRows(values, labels, groups);
      if (!shardStatus[shard].isOk()) return;
    }
    shardStatus[shard] = writer.finish();
    if (!shardStatus[shard].isOk()) return;
    shardsBuilt.add();
    const std::size_t built = fresh.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config.crashAfterShards > 0 && built >= config.crashAfterShards) {
      crashed.store(true, std::memory_order_relaxed);
    }
  });
  result.freshShards = fresh.load();
  result.resumedShards = resumed.load();
  for (const util::Status& s : shardStatus) {
    if (!s.isOk()) return s;
  }
  if (crashed.load()) {
    return util::Status(util::StatusCode::kInternal,
                        "buildYearMatrix: injected crash after " +
                            std::to_string(result.freshShards) + " shards");
  }

  // Phase 2: deterministic merge — segments streamed in author order into
  // the final file, bounded by one row block regardless of matrix size.
  ml::MatrixStreamWriter merged(finalPath, rows, cols, finalMeta);
  for (std::size_t shard = 0; shard < result.shardCount; ++shard) {
    const std::size_t beginAuthor = shard * config.shardSize;
    const std::size_t endAuthor =
        std::min(config.authorCount, beginAuthor + config.shardSize);
    const std::uint64_t segMeta =
        util::combine64(finalMeta, util::combine64(beginAuthor, endAuthor));
    auto seg = ml::MatrixFile::open(
        segmentPath(config.outDir, config.year, beginAuthor, endAuthor),
        segMeta);
    if (!seg.ok()) return seg.status();
    const ml::MatrixFile& file = seg.value();
    if (file.rows() != (endAuthor - beginAuthor) * perAuthor ||
        file.cols() != cols) {
      return util::Status(util::StatusCode::kDataLoss,
                          "buildYearMatrix: segment shape mismatch: " +
                              file.path());
    }
    constexpr std::size_t kMergeBlockRows = 1024;
    std::vector<std::int32_t> labels;
    std::vector<std::int32_t> groups;
    for (std::size_t begin = 0; begin < file.rows();
         begin += kMergeBlockRows) {
      const std::size_t end =
          std::min(file.rows(), begin + kMergeBlockRows);
      labels.clear();
      groups.clear();
      for (std::size_t i = begin; i < end; ++i) {
        labels.push_back(file.label(i));
        groups.push_back(file.group(i));
      }
      // Rows are contiguous row-major in the mapping, so one span covers
      // the whole block.
      const std::span<const double> block(file.row(begin).data(),
                                          (end - begin) * cols);
      if (auto s = merged.appendRows(block, labels, groups); !s.isOk()) {
        return s;
      }
    }
    file.dropResidency();
  }
  if (auto s = merged.finish(); !s.isOk()) return s;

  // Segments are now redundant; a crash between finish() and here only
  // leaves garbage the next run's short-circuit path cleans up.
  removeSegments();
  return result;
}

}  // namespace sca::corpus
