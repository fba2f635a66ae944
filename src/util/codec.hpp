// Exact little-endian binary encoding: integers verbatim, doubles as
// their IEEE-754 bit pattern, strings length-prefixed. The sca-matrix-v1
// header is written with it, so a decoded double is bit for bit the one
// that was encoded — decimal formatting would not round-trip.
//
// The reader is the decoder's safety net: every read is bounds checked,
// and the first overrun latches ok() to false while subsequent reads
// return zeros/empties. Callers check ok() && atEnd() once at the end and
// treat failure as a rejected file — truncated or corrupt input costs a
// rebuild, never a crash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sca::util {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  /// Exact IEEE-754 bit pattern; round-trips every value including -0.0,
  /// infinities and NaN payloads.
  void f64(double v);

  /// u32 byte length + raw bytes.
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.append(v);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  bool boolean() { return u8() != 0; }

  /// True while no read has run past the end of the buffer.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when the whole buffer has been consumed (trailing garbage is as
  /// suspect as truncation).
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == data_.size(); }

 private:
  [[nodiscard]] bool take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sca::util
