#pragma once
// Endian-safe binary serialization used by the MedSen wire protocol
// (sensor -> phone -> cloud messages) and by key/identifier storage.
// All multi-byte integers are encoded little-endian; doubles are encoded
// via their IEEE-754 bit pattern.

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace medsen::util {

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) byte string.
  void blob(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(const std::string& s);
  /// Length-prefixed (u32) vector of doubles.
  void f64_vec(std::span<const double> v);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads primitives back from a byte buffer; throws std::out_of_range on
/// truncated input so malformed network frames surface as errors rather
/// than garbage values.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// A u8 boolean: 0 or 1. Any other value throws std::runtime_error, so
  /// every accepted byte string re-serializes to itself.
  bool flag();
  /// Borrow the next `n` bytes without copying them.
  std::span<const std::uint8_t> bytes(std::size_t n);
  std::vector<std::uint8_t> blob();
  std::string str();
  std::vector<double> f64_vec();

  /// Reads a u32 element count and validates it against the bytes left:
  /// each element needs at least `min_elem_bytes`, so a count the buffer
  /// cannot possibly satisfy is rejected *before* any allocation — a
  /// 20-byte frame must not be able to demand a multi-gigabyte reserve.
  std::uint32_t count_u32(std::size_t min_elem_bytes);

  /// Throws std::runtime_error("<what>: trailing bytes") unless the
  /// buffer is fully consumed. Strict decoders call this last so that
  /// appended garbage is rejected instead of silently ignored.
  void expect_done(const char* what) const;

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (n > data_.size() - pos_)
      throw std::out_of_range("ByteReader: truncated buffer");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace medsen::util
