#include "compress/bitio.h"

#include <algorithm>

namespace medsen::compress {

BitWriter::BitWriter(std::vector<std::uint8_t> prefix,
                     std::size_t expected_bits)
    : buf_(std::move(prefix)), size_(buf_.size()), prefix_bytes_(size_) {
  buf_.resize(size_ + (expected_bits + 7) / 8);
}

void BitWriter::grow() {
  buf_.resize(std::max<std::size_t>(2 * buf_.size(), size_ + 64));
}

std::vector<std::uint8_t> BitWriter::finish() {
  const std::size_t tail = (acc_bits_ + 7) / 8;
  buf_.resize(size_ + tail);
  for (std::size_t i = 0; i < tail; ++i)
    buf_[size_ + i] = static_cast<std::uint8_t>(acc_ >> (8 * i));
  size_ += tail;
  acc_ = 0;
  acc_bits_ = 0;
  return std::move(buf_);
}

void BitReader::refill() {
  if (next_byte_ + 8 <= data_.size()) {
    std::uint64_t word = 0;
    for (unsigned i = 0; i < 8; ++i)
      word |= std::uint64_t{data_[next_byte_ + i]} << (8 * i);
    // Bits of `word` above the new buf_bits_ belong to bytes not taken
    // yet; the next refill ORs the same bytes into the same positions.
    buf_ |= word << buf_bits_;
    const unsigned taken = (63 - buf_bits_) / 8;
    next_byte_ += taken;
    buf_bits_ += taken * 8;
    return;
  }
  for (; buf_bits_ <= 56; buf_bits_ += 8, ++next_byte_)
    if (next_byte_ < data_.size())
      buf_ |= std::uint64_t{data_[next_byte_]} << buf_bits_;
}

}  // namespace medsen::compress
