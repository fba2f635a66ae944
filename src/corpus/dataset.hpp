// Dataset builder: renders the (author x challenge) sample grid of one
// simulated GCJ year (Table I: 204 authors x 8 challenges = 1,632 samples).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/authors.hpp"
#include "corpus/challenges.hpp"
#include "util/status.hpp"

namespace sca::features {
class FeatureExtractor;
}  // namespace sca::features

namespace sca::corpus {

/// One source-code sample with its provenance.
struct CodeSample {
  std::string source;
  int authorId = -1;       // 0..N-1 for humans, -1 for LLM-origin samples
  int challengeIndex = 0;  // 0..7 within the year
  std::string origin;      // "human", "chatgpt", "chatgpt+nct", ...
};

struct YearDataset {
  int year = 0;
  std::vector<Author> authors;
  std::vector<const Challenge*> challenges;
  std::vector<CodeSample> samples;  // one per (author, challenge)
};

/// Builds the full human corpus of a year deterministically.
[[nodiscard]] YearDataset buildYearDataset(int year,
                                           std::size_t authorCount = 204);

/// Renders one author's solution to one challenge (the primitive the
/// dataset builder and the transformation experiments share).
[[nodiscard]] std::string renderSolution(const Author& author,
                                         const Challenge& challenge, int year,
                                         int challengeIndex);

// ----------------------------------------------------- out-of-core scale --
// buildYearMatrix() is buildYearDataset() for corpora that do not fit in
// memory: it renders the (author x challenge) grid in author-range shards
// on the runtime pool, extracts features sample by sample through the
// cache-bypassing extractor path, streams each shard author by author into
// an sca-matrix-v1 segment that lands by rename (the segment IS the shard's
// crash checkpoint, pinned by its metaHash), and streams the segments into
// one final matrix in author order.
//
// Determinism contract: the final file's bytes depend only on (year,
// authorCount, extractor schema) — never on shard size, thread count, or
// how many crash/resume cycles the build went through. A resumed build
// reuses every segment whose metaHash and shape check out and re-renders
// only the rest; a finished final file short-circuits the whole build.

struct ScaleConfig {
  int year = 2017;
  std::size_t authorCount = 204;
  /// Directory for segments and the final matrix (created if missing).
  std::string outDir;
  /// Authors per generation shard: the unit of pool parallelism and of
  /// resume after a crash.
  std::size_t shardSize = 256;
  /// Test hook: abort the build (kInternal) after this many freshly built
  /// shards, leaving their segments behind for a resume. 0 = off.
  std::size_t crashAfterShards = 0;
};

struct ScaleBuildResult {
  std::string matrixPath;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t shardCount = 0;
  std::size_t freshShards = 0;    // rendered by this run
  std::size_t resumedShards = 0;  // segments reused from a previous run
  bool reusedFinal = false;       // final matrix already existed
  std::uint64_t metaHash = 0;
};

/// The metaHash the final matrix of (extractor, year, authorCount) is
/// pinned with — callers pass it to ml::MatrixFile::open so a stale file
/// is rejected rather than silently trained on.
[[nodiscard]] std::uint64_t yearMatrixMetaHash(
    const features::FeatureExtractor& extractor, int year,
    std::size_t authorCount);

/// Builds (or resumes building) the year's feature matrix out-of-core.
/// `extractor` must already be fitted; row i*challenges+c holds author i's
/// features for challenge c, label = author id, group = challenge index.
[[nodiscard]] util::Result<ScaleBuildResult> buildYearMatrix(
    const features::FeatureExtractor& extractor, const ScaleConfig& config);

}  // namespace sca::corpus
