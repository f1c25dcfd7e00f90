#include "util/serialize.h"

#include <bit>

namespace medsen::util {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// `v` with its bytes in wire order, least significant first: the value
/// itself on a little-endian host, its byte reversal on a big-endian one.
/// The mapping is its own inverse, so it both encodes and decodes.
template <typename T>
T wire_order(T v) {
  if constexpr (kLittleEndian) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out = static_cast<T>(out << 8 | (v >> (8 * i) & 0xFF));
    return out;
  }
}

template <typename T>
void append(std::vector<std::uint8_t>& buf, T v) {
  v = wire_order(v);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* in) {
  T v = 0;
  std::memcpy(&v, in, sizeof(T));
  return wire_order(v);
}

}  // namespace

void ByteWriter::u16(std::uint16_t v) { append(buf_, v); }

void ByteWriter::u32(std::uint32_t v) { append(buf_, v); }

void ByteWriter::u64(std::uint64_t v) { append(buf_, v); }

void ByteWriter::f64(double v) {
  append(buf_, std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  bytes(data);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::f64_vec(std::span<const double> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (kLittleEndian) {
    if (v.empty()) return;
    const std::size_t start = buf_.size();
    buf_.resize(start + v.size_bytes());
    std::memcpy(buf_.data() + start, v.data(), v.size_bytes());
  } else {
    for (const double x : v) f64(x);
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const auto v = load<std::uint16_t>(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  const auto v = load<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  const auto v = load<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::flag() {
  const std::uint8_t v = u8();
  if (v > 1) throw std::runtime_error("ByteReader: flag byte is not 0 or 1");
  return v == 1;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::vector<std::uint8_t> ByteReader::blob() {
  const std::uint32_t n = u32();
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                data_.begin() + static_cast<long>(pos_ + n));
  pos_ += n;
  return out;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

std::vector<double> ByteReader::f64_vec() {
  // count_u32 has checked that all n elements are in the buffer.
  const std::uint32_t n = count_u32(sizeof(double));
  std::vector<double> out(n);
  if constexpr (kLittleEndian) {
    if (n == 0) return out;
    std::memcpy(out.data(), data_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
  } else {
    for (double& x : out) x = f64();
  }
  return out;
}

std::uint32_t ByteReader::count_u32(std::size_t min_elem_bytes) {
  const std::uint32_t n = u32();
  if (min_elem_bytes > 0 &&
      static_cast<std::uint64_t>(n) * min_elem_bytes > remaining())
    throw std::out_of_range("ByteReader: element count exceeds buffer");
  return n;
}

void ByteReader::expect_done(const char* what) const {
  if (!done())
    throw std::runtime_error(std::string(what) + ": trailing bytes");
}

}  // namespace medsen::util
