#include "ml/matrix.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "obs/flight.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace sca::ml {
namespace {

// The payload is written through the little-endian byte codec but read
// back as raw f64/i32 views into the mapping; both sides agree only on a
// little-endian host (every target this repo builds for).
static_assert(std::endian::native == std::endian::little,
              "sca-matrix-v1 mmap reader requires a little-endian host");

constexpr std::size_t kHeaderBytes = 72;
constexpr std::size_t kHashWindowBytes = std::size_t{4} << 20;

std::size_t pageSize() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size == 0 ? 4096 : size;
}

/// Header + pad. `labels/groups` offsets are derived, but stored anyway so
/// the reader validates internal consistency instead of trusting math.
std::string encodeHeader(std::size_t rows, std::size_t cols,
                         std::uint64_t metaHash) {
  util::ByteWriter w;
  w.str(kMatrixMagic);
  w.u64(rows);
  w.u64(cols);
  w.u64(metaHash);
  const std::uint64_t dataOffset = kHeaderBytes;
  const std::uint64_t labelsOffset = dataOffset + rows * cols * 8;
  w.u64(dataOffset);
  w.u64(labelsOffset);
  w.u64(labelsOffset + rows * 4);
  std::string out = w.take();
  out.resize(kHeaderBytes, '\0');
  return out;
}

util::Status errnoStatus(const std::string& what) {
  return util::Status(util::StatusCode::kInternal,
                      what + ": " + std::strerror(errno));
}

util::Status writeAll(int fd, const void* data, std::size_t bytes,
                      const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ::ssize_t n = ::write(fd, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errnoStatus("write " + path);
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return util::Status();
}

}  // namespace

// ------------------------------------------------------ MatrixStreamWriter

MatrixStreamWriter::MatrixStreamWriter(std::string path, std::size_t rows,
                                       std::size_t cols,
                                       std::uint64_t metaHash)
    : path_(std::move(path)), tmpPath_(path_ + ".tmp"), rows_(rows),
      cols_(cols) {
  labels_.reserve(rows);
  groups_.reserve(rows);
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  fd_ = ::open(tmpPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ >= 0) {
    const std::string header = encodeHeader(rows_, cols_, metaHash);
    if (!writeAll(fd_, header.data(), header.size(), tmpPath_).isOk()) {
      ::close(fd_);
      fd_ = -1;
    }
  }
}

MatrixStreamWriter::~MatrixStreamWriter() {
  if (fd_ >= 0) {  // finish() not reached: abandon the temp file
    ::close(fd_);
    ::unlink(tmpPath_.c_str());
  }
}

util::Status MatrixStreamWriter::appendRows(
    std::span<const double> values, std::span<const std::int32_t> labels,
    std::span<const std::int32_t> groups) {
  if (fd_ < 0) return errnoStatus("open " + tmpPath_);
  if (labels.size() != groups.size() ||
      values.size() != labels.size() * cols_) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "MatrixStreamWriter: block shape mismatch");
  }
  if (rowsWritten_ + labels.size() > rows_) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "MatrixStreamWriter: more rows than declared");
  }
  const util::Status status =
      writeAll(fd_, values.data(), values.size_bytes(), tmpPath_);
  if (!status.isOk()) return status;
  labels_.insert(labels_.end(), labels.begin(), labels.end());
  groups_.insert(groups_.end(), groups.begin(), groups.end());
  rowsWritten_ += labels.size();
  return util::Status();
}

util::Status MatrixStreamWriter::finish() {
  if (fd_ < 0) return errnoStatus("open " + tmpPath_);
  if (rowsWritten_ != rows_) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "MatrixStreamWriter: wrote " +
                            std::to_string(rowsWritten_) + "/" +
                            std::to_string(rows_) + " declared rows");
  }
  util::Status status = writeAll(fd_, labels_.data(),
                                 labels_.size() * sizeof(std::int32_t),
                                 tmpPath_);
  if (status.isOk()) {
    status = writeAll(fd_, groups_.data(),
                      groups_.size() * sizeof(std::int32_t), tmpPath_);
  }
  if (status.isOk() && ::fsync(fd_) != 0) {
    status = errnoStatus("fsync " + tmpPath_);
  }
  ::close(fd_);
  fd_ = -1;
  if (!status.isOk()) {
    ::unlink(tmpPath_.c_str());
    return status;
  }
  if (::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
    const util::Status renameStatus = errnoStatus("rename " + tmpPath_);
    ::unlink(tmpPath_.c_str());
    return renameStatus;
  }
  return util::Status();
}

// -------------------------------------------------------------- MatrixFile

MatrixFile::~MatrixFile() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), mapBytes_);
  }
}

MatrixFile::MatrixFile(MatrixFile&& other) noexcept { *this = std::move(other); }

MatrixFile& MatrixFile::operator=(MatrixFile&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(const_cast<char*>(map_), mapBytes_);
    path_ = std::move(other.path_);
    map_ = other.map_;
    mapBytes_ = other.mapBytes_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    metaHash_ = other.metaHash_;
    dataOffset_ = other.dataOffset_;
    labelsOffset_ = other.labelsOffset_;
    groupsOffset_ = other.groupsOffset_;
    other.map_ = nullptr;
    other.mapBytes_ = 0;
    other.rows_ = other.cols_ = 0;
  }
  return *this;
}

util::Result<MatrixFile> MatrixFile::open(const std::string& path,
                                          std::uint64_t expectedMetaHash) {
  const auto corrupt = [&](const std::string& why) {
    return util::Status(util::StatusCode::kDataLoss,
                        "matrix " + path + ": " + why);
  };

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return corrupt("cannot open");
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return corrupt("cannot stat");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return corrupt("shorter than header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return corrupt("mmap failed");

  MatrixFile file;
  file.path_ = path;
  file.map_ = static_cast<const char*>(map);
  file.mapBytes_ = size;

  util::ByteReader r(std::string_view(file.map_, kHeaderBytes));
  const std::string magic = r.str();
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  const std::uint64_t metaHash = r.u64();
  const std::uint64_t dataOffset = r.u64();
  const std::uint64_t labelsOffset = r.u64();
  const std::uint64_t groupsOffset = r.u64();
  if (!r.ok() || magic != kMatrixMagic) return corrupt("bad magic");
  // Overflow-safe shape check: each dimension must already fit the file,
  // and so must their product (compared by division, never multiplied).
  if (cols == 0 || rows > size || cols > size ||
      (rows != 0 && cols > (size / 8 + 1) / rows)) {
    return corrupt("implausible shape");
  }
  if (dataOffset != kHeaderBytes ||
      labelsOffset != dataOffset + rows * cols * 8 ||
      groupsOffset != labelsOffset + rows * 4 ||
      size != groupsOffset + rows * 4) {
    return corrupt("inconsistent section offsets");
  }
  if (expectedMetaHash != 0 && metaHash != expectedMetaHash) {
    return corrupt("meta hash mismatch (stale segment)");
  }
  file.rows_ = rows;
  file.cols_ = cols;
  file.metaHash_ = metaHash;
  file.dataOffset_ = dataOffset;
  file.labelsOffset_ = labelsOffset;
  file.groupsOffset_ = groupsOffset;
  return file;
}

int MatrixFile::label(std::size_t i) const {
  std::int32_t value = 0;
  std::memcpy(&value, map_ + labelsOffset_ + i * 4, 4);
  return value;
}

int MatrixFile::group(std::size_t i) const {
  std::int32_t value = 0;
  std::memcpy(&value, map_ + groupsOffset_ + i * 4, 4);
  return value;
}

void MatrixFile::dropResidency() const {
  if (map_ == nullptr || labelsOffset_ <= dataOffset_) return;
  const std::size_t page = pageSize();
  const std::size_t begin = (dataOffset_ + page - 1) / page * page;
  const std::size_t end = labelsOffset_ / page * page;
  if (end > begin) {
    ::madvise(const_cast<char*>(map_) + begin, end - begin, MADV_DONTNEED);
  }
}

// ---------------------------------------------------------- RowBlockReader

RowBlockReader::RowBlockReader(const MatrixFile& file,
                               std::size_t rowsPerBlock)
    : file_(&file), rowsPerBlock_(std::max<std::size_t>(1, rowsPerBlock)) {}

bool RowBlockReader::next() {
  if (started_ && end_ > begin_) {
    // Drop the block we just finished; the mapping stays valid, only its
    // pages leave the process.
    file_->dropResidency();
  }
  if (!started_) {
    started_ = true;
    begin_ = 0;
  } else {
    begin_ = end_;
  }
  end_ = std::min(begin_ + rowsPerBlock_, file_->rows());
  if (begin_ < end_) {
    // Streaming heartbeat: a fold stuck on one block shows up as a stale
    // row_block event in the flight ring.
    obs::flight::note(obs::flight::EventKind::kStream, "row_block", begin_);
  }
  return begin_ < end_;
}

// ------------------------------------------------------- matrixContentHash

std::uint64_t matrixContentHash(const MatrixFile& file) {
  // Walk the mapping in fixed windows, folding each window's hash into a
  // running combine — equal bytes give equal hashes (the window size is a
  // format constant, not a caller knob) — and drop each window from the
  // process as the scan advances, so hashing a huge matrix stays ~one
  // window resident.
  const std::span<const char> bytes = file.rawBytes();
  std::uint64_t hash = util::hash64("sca-matrix-content");
  const std::size_t page = pageSize();
  for (std::size_t offset = 0; offset < bytes.size();
       offset += kHashWindowBytes) {
    const std::size_t len =
        std::min(kHashWindowBytes, bytes.size() - offset);
    hash = util::combine64(
        hash, util::hash64(std::string_view(bytes.data() + offset, len)));
    const std::size_t alignedBegin = (offset + page - 1) / page * page;
    const std::size_t alignedEnd = (offset + len) / page * page;
    if (alignedEnd > alignedBegin) {
      ::madvise(const_cast<char*>(bytes.data()) + alignedBegin,
                alignedEnd - alignedBegin, MADV_DONTNEED);
    }
  }
  return hash;
}

}  // namespace sca::ml
