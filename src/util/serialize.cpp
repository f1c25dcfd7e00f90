#include "util/serialize.h"

namespace medsen::util {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
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
  const std::size_t start = buf_.size();
  buf_.resize(start + v.size() * sizeof(double));
  std::uint8_t* out = buf_.data() + start;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int i = 0; i < 8; ++i)
      *out++ = static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(data_[pos_++]) << (8 * i)));
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

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
  const std::uint8_t* in = data_.data() + pos_;
  for (double& x : out) {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(*in++) << (8 * i);
    std::memcpy(&x, &bits, sizeof(x));
  }
  pos_ += std::size_t{n} * sizeof(double);
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
