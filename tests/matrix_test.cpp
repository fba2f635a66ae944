// Tests for the out-of-core matrix layer (src/ml/matrix.hpp): the
// sca-matrix-v1 format, its streaming writer, the mmap reader and its block
// reader, and seeded mutants of a valid file.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ml/matrix.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace sca::ml {
namespace {

std::string tempDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("sca_matrix_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic but irregular test payload: rows x cols doubles whose
/// values exercise sign, magnitude and exact-binary-fraction cases.
std::vector<std::vector<double>> testRows(std::size_t rows,
                                          std::size_t cols) {
  std::vector<std::vector<double>> out(rows, std::vector<double>(cols));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double base = static_cast<double>(i * cols + j);
      out[i][j] = (j % 3 == 0)   ? base * 0.25
                  : (j % 3 == 1) ? -base / 7.0
                                 : base * 1e6;
    }
  }
  return out;
}

/// Writes testRows(rows, cols) one row per append, with label i % 5 and
/// group i % 3.
std::string writeTestMatrix(const std::string& path, std::size_t rows,
                            std::size_t cols, std::uint64_t metaHash) {
  MatrixStreamWriter writer(path, rows, cols, metaHash);
  const auto data = testRows(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::int32_t label = static_cast<std::int32_t>(i % 5);
    const std::int32_t group = static_cast<std::int32_t>(i % 3);
    EXPECT_TRUE(writer.appendRows(data[i], {&label, 1}, {&group, 1}).isOk());
  }
  EXPECT_TRUE(writer.finish().isOk());
  return path;
}

// ------------------------------------------------------------- format

TEST(Matrix, RoundTripsRowsLabelsGroupsBitForBit) {
  const std::string dir = tempDir("roundtrip");
  const std::uint64_t meta = util::hash64("roundtrip-meta");
  const std::string path = writeTestMatrix(dir + "/m.mtx", 17, 9, meta);

  auto opened = MatrixFile::open(path, meta);
  ASSERT_TRUE(opened.ok()) << opened.status().toString();
  const MatrixFile& file = opened.value();
  EXPECT_EQ(file.rows(), 17u);
  EXPECT_EQ(file.cols(), 9u);
  EXPECT_EQ(file.metaHash(), meta);

  const auto expected = testRows(17, 9);
  for (std::size_t i = 0; i < 17; ++i) {
    const std::span<const double> row = file.row(i);
    ASSERT_EQ(row.size(), 9u);
    for (std::size_t j = 0; j < 9; ++j) {
      // Bit-level equality, not approximate: doubles are stored as IEEE
      // bit patterns.
      EXPECT_EQ(row[j], expected[i][j]) << i << "," << j;
    }
    EXPECT_EQ(file.label(i), static_cast<int>(i % 5));
    EXPECT_EQ(file.group(i), static_cast<int>(i % 3));
  }
}

TEST(Matrix, StreamWriterBytesIndependentOfBlockSizes) {
  const std::string dir = tempDir("stream_eq");
  const std::uint64_t meta = util::hash64("stream-meta");
  const std::string perRow = writeTestMatrix(dir + "/per_row.mtx", 23, 6, meta);

  // Same rows in uneven blocks.
  const auto data = testRows(23, 6);
  MatrixStreamWriter stream(dir + "/streamed.mtx", 23, 6, meta);
  std::size_t at = 0;
  for (const std::size_t block : {5ul, 1ul, 11ul, 6ul}) {
    std::vector<double> values;
    std::vector<std::int32_t> labels;
    std::vector<std::int32_t> groups;
    for (std::size_t i = at; i < at + block; ++i) {
      values.insert(values.end(), data[i].begin(), data[i].end());
      labels.push_back(static_cast<std::int32_t>(i % 5));
      groups.push_back(static_cast<std::int32_t>(i % 3));
    }
    ASSERT_TRUE(stream.appendRows(values, labels, groups).isOk());
    at += block;
  }
  ASSERT_EQ(at, 23u);
  ASSERT_TRUE(stream.finish().isOk());

  const auto a = util::readFile(perRow);
  const auto b = util::readFile(dir + "/streamed.mtx");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());  // byte-identical files
}

TEST(Matrix, StreamWriterEnforcesDeclaredShape) {
  const std::string dir = tempDir("stream_shape");
  const std::vector<std::int32_t> oneLabel = {0};
  const std::vector<std::int32_t> oneGroup = {0};
  {
    MatrixStreamWriter writer(dir + "/short.mtx", 4, 3, 1);
    const std::vector<double> row(3, 1.0);
    ASSERT_TRUE(writer.appendRows(row, oneLabel, oneGroup).isOk());
    EXPECT_FALSE(writer.finish().isOk());  // 1 of 4 declared rows
    // The abandoned temp never became the target.
    EXPECT_FALSE(std::filesystem::exists(dir + "/short.mtx"));
  }
  {
    MatrixStreamWriter writer(dir + "/wide.mtx", 2, 3, 1);
    const std::vector<double> notRowMultiple(5, 1.0);
    EXPECT_FALSE(writer.appendRows(notRowMultiple, oneLabel, oneGroup).isOk());
  }
}

TEST(Matrix, OpenRejectsMissingForeignTruncatedAndStaleFiles) {
  const std::string dir = tempDir("reject");
  EXPECT_FALSE(MatrixFile::open(dir + "/absent.mtx").ok());

  const std::string path =
      writeTestMatrix(dir + "/m.mtx", 8, 4, util::hash64("fresh"));

  // Stale metaHash: opens fine unpinned, rejected when pinned elsewhere.
  EXPECT_TRUE(MatrixFile::open(path).ok());
  EXPECT_TRUE(MatrixFile::open(path, util::hash64("fresh")).ok());
  EXPECT_FALSE(MatrixFile::open(path, util::hash64("stale")).ok());

  // Truncated payload.
  const auto full = util::readFile(path);
  ASSERT_TRUE(full.ok());
  {
    std::ofstream torn(dir + "/torn.mtx", std::ios::binary);
    torn << full.value().substr(0, full.value().size() - 7);
  }
  EXPECT_FALSE(MatrixFile::open(dir + "/torn.mtx").ok());

  // Foreign magic.
  {
    std::string foreign = full.value();
    foreign[6] ^= 0x20;  // corrupt a magic byte (inside the str payload)
    std::ofstream out(dir + "/foreign.mtx", std::ios::binary);
    out << foreign;
  }
  EXPECT_FALSE(MatrixFile::open(dir + "/foreign.mtx").ok());
}

// ------------------------------------------------------------- reading

TEST(Matrix, RowBlockReaderCoversEveryRowExactlyOnce) {
  const std::string dir = tempDir("blocks");
  const std::string path = writeTestMatrix(dir + "/m.mtx", 10, 3, 1);
  auto opened = MatrixFile::open(path);
  ASSERT_TRUE(opened.ok());

  // Each advance drops the pages read so far; the values refault from the
  // file unchanged, pass after pass.
  const auto expected = testRows(10, 3);
  for (const std::size_t rowsPerBlock : {1ul, 3ul, 10ul, 64ul}) {
    RowBlockReader reader(opened.value(), rowsPerBlock);
    std::vector<bool> seen(10, false);
    while (reader.next()) {
      EXPECT_LE(reader.endRow() - reader.beginRow(), rowsPerBlock);
      for (std::size_t i = reader.beginRow(); i < reader.endRow(); ++i) {
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
        const std::span<const double> row = reader.row(i);
        EXPECT_EQ(std::vector<double>(row.begin(), row.end()), expected[i]);
      }
    }
    for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(seen[i]) << i;
  }
}

TEST(Matrix, ContentHashTracksBytesNotAccessPattern) {
  const std::string dir = tempDir("hash");
  const std::string a = writeTestMatrix(dir + "/a.mtx", 40, 8, 3);
  const std::string b = writeTestMatrix(dir + "/b.mtx", 40, 8, 3);

  auto fileA = MatrixFile::open(a);
  auto fileB = MatrixFile::open(b);
  ASSERT_TRUE(fileA.ok());
  ASSERT_TRUE(fileB.ok());
  const std::uint64_t hashA = matrixContentHash(fileA.value());
  EXPECT_EQ(hashA, matrixContentHash(fileB.value()));

  // Reading every row and dropping the pages does not change the hash...
  for (std::size_t i = 0; i < fileA.value().rows(); ++i) {
    EXPECT_EQ(fileA.value().row(i).size(), 8u);
  }
  fileA.value().dropResidency();
  EXPECT_EQ(matrixContentHash(fileA.value()), hashA);

  // ...but one flipped payload byte does.
  auto bytes = util::readFile(a);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  mutated[mutated.size() / 2] ^= 1;
  {
    std::ofstream out(dir + "/c.mtx", std::ios::binary);
    out << mutated;
  }
  auto fileC = MatrixFile::open(dir + "/c.mtx");
  ASSERT_TRUE(fileC.ok());
  EXPECT_NE(matrixContentHash(fileC.value()), hashA);
}

// -------------------------------------------------------- mutation fuzz

std::uint64_t readU64(const std::string& bytes, std::size_t offset) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

void writeU64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

/// One seeded mutation: a flipped header bit, a rewritten header field, a
/// self-consistent header for another shape, a truncation, or trailing
/// bytes.
void mutate(std::string& bytes, util::Rng& rng) {
  // rows, cols, metaHash, dataOffset, labelsOffset, groupsOffset
  constexpr std::array<std::size_t, 6> kFields = {17, 25, 33, 41, 49, 57};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (pick(5)) {
    case 0:
      if (bytes.size() >= 72) {
        bytes[pick(72)] ^= static_cast<char>(1u << pick(8));
      }
      break;
    case 1:
      if (bytes.size() >= 72) {
        const std::size_t field = kFields[pick(kFields.size())];
        const std::uint64_t old = readU64(bytes, field);
        const std::array<std::uint64_t, 7> values = {
            old + 1,  old - 1, old * 2, old << 32, 0,
            ~old,     rng.next()};
        writeU64(bytes, field, values[pick(values.size())]);
      }
      break;
    case 2:
      if (bytes.size() >= 72) {
        const std::uint64_t rows = pick(13);
        const std::uint64_t cols = 1 + pick(12);
        writeU64(bytes, 17, rows);
        writeU64(bytes, 25, cols);
        writeU64(bytes, 41, 72);
        writeU64(bytes, 49, 72 + rows * cols * 8);
        writeU64(bytes, 57, 72 + rows * cols * 8 + rows * 4);
      }
      break;
    case 3:
      if (!bytes.empty()) bytes.resize(pick(bytes.size()));
      break;
    default:
      bytes.append(1 + pick(64), static_cast<char>(rng.next()));
      break;
  }
}

// Each mutant either fails to open with kDataLoss, or opens with a shape
// whose sections tile the file exactly, so that every row, label and group
// read lands inside it, at its own section's offset.
TEST(Matrix, MutatedFilesFailClosedOrReadInBounds) {
  const std::string dir = tempDir("fuzz");
  const auto valid =
      util::readFile(writeTestMatrix(dir + "/valid.mtx", 6, 3, 9));
  ASSERT_TRUE(valid.ok());
  const std::string path = dir + "/mutant.mtx";
  util::Rng rng(util::hash64("matrix-fuzz"));
  constexpr std::size_t kMutants = 2000;
  std::size_t opened = 0;
  for (std::size_t round = 0; round < kMutants; ++round) {
    std::string bytes = valid.value();
    mutate(bytes, rng);
    if (rng.bernoulli(0.3)) mutate(bytes, rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const auto file = MatrixFile::open(path);
    if (!file.ok()) {
      EXPECT_EQ(file.status().code(), util::StatusCode::kDataLoss)
          << "mutant " << round << ": " << file.status().toString();
      continue;
    }
    ++opened;
    const MatrixFile& m = file.value();
    const std::size_t payload = m.rows() * m.cols() * sizeof(double);
    ASSERT_EQ(m.fileBytes(), bytes.size()) << "mutant " << round;
    ASSERT_EQ(72 + payload + m.rows() * 8, bytes.size())
        << "mutant " << round << ": " << m.rows() << " x " << m.cols();
    const char* data = m.rawBytes().data() + 72;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const std::span<const double> row = m.row(i);
      ASSERT_EQ(reinterpret_cast<const char*>(row.data()),
                data + i * m.cols() * sizeof(double))
          << "mutant " << round << ", row " << i;
      EXPECT_EQ(std::memcmp(row.data(), bytes.data() + 72 +
                                            i * m.cols() * sizeof(double),
                            row.size_bytes()),
                0);
      std::int32_t label = 0;
      std::int32_t group = 0;
      std::memcpy(&label, bytes.data() + 72 + payload + 4 * i, 4);
      std::memcpy(&group, bytes.data() + 72 + payload + 4 * (m.rows() + i),
                  4);
      EXPECT_EQ(m.label(i), label) << "mutant " << round << ", row " << i;
      EXPECT_EQ(m.group(i), group) << "mutant " << round << ", row " << i;
    }
  }
  // Both outcomes occur, so the mutants reach past the header checks.
  EXPECT_GT(opened, 0u);
  EXPECT_LT(opened, kMutants);
}

}  // namespace
}  // namespace sca::ml
