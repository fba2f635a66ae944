// Out-of-core feature matrices: the sca-matrix-v1 on-disk format, its
// streaming writer and an mmap-backed reader.
//
// The paper's 204-authors-per-year corpus fits in RAM; the production
// north-star (10^5-10^6 authors) does not. This module is the storage layer
// that lets corpus generation spill feature rows to disk and lets a caller
// scan them in row blocks without ever holding the full matrix resident.
//
// File layout (all integers little-endian via the cache/codec primitives;
// doubles are IEEE-754 bit patterns, so rows round-trip bit for bit):
//
//   offset 0   str  "sca-matrix-v1"        (u32 length + 13 bytes)
//   offset 17  u64  rows
//   offset 25  u64  cols
//   offset 33  u64  metaHash               (caller-pinned provenance)
//   offset 41  u64  dataOffset   (= 72)
//   offset 49  u64  labelsOffset (= dataOffset + rows*cols*8)
//   offset 57  u64  groupsOffset (= labelsOffset + rows*4)
//   offset 65  7 zero pad bytes            (dataOffset is 8-aligned)
//   offset 72  rows*cols f64               (row-major feature payload)
//   ...        rows     u32                (labels, int32 bit patterns)
//   ...        rows     u32                (groups, int32 bit patterns)
//
// metaHash pins provenance: the writer stores a hash of everything the
// bytes depend on (corpus year, author range, extractor schema, ...) and
// the reader rejects a file whose hash disagrees with what the caller
// expects — a stale segment costs a recompute, never silent wrong data.
//
// MatrixStreamWriter is the one writer. It streams row blocks straight to
// a temp fd and renames on finish, so writing a 10^5-row matrix never
// holds more than one block plus the label/group side arrays resident; a
// kill leaves the previous file (or a dead .tmp that the next run
// overwrites), never a torn target.
//
// MatrixFile maps the whole file PROT_READ/MAP_PRIVATE and serves
// std::span<const double> row views straight into the mapping — no copy,
// no per-row allocation. Touched pages count toward RSS, so every read of
// the payload ends with its pages dropped: RowBlockReader drops them as
// it advances, and a caller that reads rows directly calls
// dropResidency() when it is done (madvise(MADV_DONTNEED); values are
// unchanged — a refault rereads the same bytes from the page cache or
// disk).
//
// Lifetime rules: spans returned by row() point into the mapping and are
// valid until the MatrixFile is destroyed or moved-from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace sca::ml {

inline constexpr std::string_view kMatrixMagic = "sca-matrix-v1";

/// Streaming writer: the row count is declared up front, the f64 payload
/// goes straight to a temp file in row order, and finish() appends the
/// label/group arrays and renames over the target.
/// Peak memory is one caller-side row block plus 8 bytes per row of side
/// arrays, independent of the matrix size.
class MatrixStreamWriter {
 public:
  MatrixStreamWriter(std::string path, std::size_t rows, std::size_t cols,
                     std::uint64_t metaHash);
  ~MatrixStreamWriter();  // abandons (unlinks) the temp file if unfinished
  MatrixStreamWriter(const MatrixStreamWriter&) = delete;
  MatrixStreamWriter& operator=(const MatrixStreamWriter&) = delete;

  /// Appends `rowCount` rows worth of packed doubles (row-major). `values`
  /// must hold exactly rowCount*cols doubles.
  [[nodiscard]] util::Status appendRows(std::span<const double> values,
                                        std::span<const std::int32_t> labels,
                                        std::span<const std::int32_t> groups);

  /// Validates the declared row count was reached, flushes, fsyncs and
  /// renames the temp file over the target.
  [[nodiscard]] util::Status finish();

 private:
  std::string path_;
  std::string tmpPath_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t rowsWritten_ = 0;
  std::vector<std::int32_t> labels_;
  std::vector<std::int32_t> groups_;
  int fd_ = -1;
};

/// Read side: maps the whole file and validates the header. See the file
/// comment for the page rule.
class MatrixFile {
 public:
  MatrixFile() = default;
  ~MatrixFile();
  MatrixFile(MatrixFile&& other) noexcept;
  MatrixFile& operator=(MatrixFile&& other) noexcept;
  MatrixFile(const MatrixFile&) = delete;
  MatrixFile& operator=(const MatrixFile&) = delete;

  /// Opens and validates. kDataLoss on a missing, truncated, foreign or
  /// internally inconsistent file. When `expectedMetaHash` is nonzero the
  /// stored metaHash must match (stale-segment detection).
  [[nodiscard]] static util::Result<MatrixFile> open(
      const std::string& path, std::uint64_t expectedMetaHash = 0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint64_t metaHash() const noexcept { return metaHash_; }
  [[nodiscard]] std::size_t fileBytes() const noexcept { return mapBytes_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Zero-copy view of one row (valid while the file is open).
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {reinterpret_cast<const double*>(map_ + dataOffset_ +
                                            i * cols_ * sizeof(double)),
            cols_};
  }
  [[nodiscard]] int label(std::size_t i) const;
  [[nodiscard]] int group(std::size_t i) const;

  /// Drops the whole data region's pages from the process.
  void dropResidency() const;

  /// The complete mapped file (header included) — for whole-file hashing
  /// and the merge step. Same lifetime rules as row().
  [[nodiscard]] std::span<const char> rawBytes() const noexcept {
    return {map_, mapBytes_};
  }

 private:
  std::string path_;
  const char* map_ = nullptr;
  std::size_t mapBytes_ = 0;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::uint64_t metaHash_ = 0;
  std::size_t dataOffset_ = 0;
  std::size_t labelsOffset_ = 0;
  std::size_t groupsOffset_ = 0;
};

/// Sequential block cursor over a MatrixFile: rows [begin,end) of the
/// current block are guaranteed touchable; advancing drops the previous
/// block's pages (madvise), so a full scan keeps ~one block resident.
class RowBlockReader {
 public:
  RowBlockReader(const MatrixFile& file, std::size_t rowsPerBlock);

  /// Advances to the next block; false when the matrix is exhausted.
  [[nodiscard]] bool next();
  [[nodiscard]] std::size_t beginRow() const noexcept { return begin_; }
  [[nodiscard]] std::size_t endRow() const noexcept { return end_; }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return file_->row(i);
  }

 private:
  const MatrixFile* file_;
  std::size_t rowsPerBlock_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool started_ = false;
};

/// Deterministic content hash of the whole file (header included),
/// computed in fixed 4 MiB windows that are dropped from the process as
/// the scan advances — hashing a multi-GB matrix stays block-resident.
/// Independent of how the file is later read, so equal bytes <=> equal
/// hash.
[[nodiscard]] std::uint64_t matrixContentHash(const MatrixFile& file);

}  // namespace sca::ml
