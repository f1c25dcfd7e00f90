#pragma once
// Bit-level I/O for the Huffman coder. Bits are packed LSB-first within
// each byte (deflate convention). Both sides keep a 64-bit accumulator:
// the writer stores whole 32-bit words, the reader refills from 8-byte
// loads, so neither touches the stream one bit at a time.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace medsen::compress {

/// Writes bits LSB-first into one byte buffer.
class BitWriter {
 public:
  BitWriter() = default;
  /// Append after the bytes of `prefix`. `expected_bits` sizes the buffer
  /// up front, so a writer that knows its output size never reallocates.
  explicit BitWriter(std::vector<std::uint8_t> prefix,
                     std::size_t expected_bits = 0);

  /// Append the low `count` bits of `bits` (count <= 32).
  void put(std::uint32_t bits, unsigned count) {
    if (count > 32) throw std::invalid_argument("BitWriter: count > 32");
    const std::uint64_t mask = (std::uint64_t{1} << count) - 1;
    acc_ |= (bits & mask) << acc_bits_;
    acc_bits_ += count;
    if (acc_bits_ >= 32) flush_word();
  }
  /// Pad to a byte boundary with zero bits and return the buffer.
  std::vector<std::uint8_t> finish();
  [[nodiscard]] std::size_t bit_count() const {
    return (size_ - prefix_bytes_) * 8 + acc_bits_;
  }

 private:
  /// Move the low 32 accumulator bits into the buffer.
  void flush_word() {
    if (size_ + 4 > buf_.size()) grow();
    for (int i = 0; i < 4; ++i)
      buf_[size_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(acc_ >> (8 * i));
    size_ += 4;
    acc_ >>= 32;
    acc_bits_ -= 32;
  }
  void grow();

  std::vector<std::uint8_t> buf_;  ///< size_ bytes in use, the rest spare
  std::size_t size_ = 0;
  std::size_t prefix_bytes_ = 0;
  std::uint64_t acc_ = 0;
  unsigned acc_bits_ = 0;
};

/// Reads bits LSB-first from a byte span; throws std::out_of_range past
/// the end.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data)
      : data_(data), end_bits_(data.size() * 8) {}

  /// Read `count` bits (count <= 32).
  std::uint32_t get(unsigned count) {
    if (count > 32) throw std::invalid_argument("BitReader: count > 32");
    const std::uint32_t out = peek(count);
    consume(count);
    return out;
  }
  /// Read a single bit.
  std::uint32_t bit() { return get(1); }

  /// The next `count` bits (count <= 32) without consuming them. Bits past
  /// the end of the stream read as zero; consume() is what rejects them.
  std::uint32_t peek(unsigned count) {
    if (buf_bits_ < count) refill();
    return static_cast<std::uint32_t>(buf_ &
                                      ((std::uint64_t{1} << count) - 1));
  }
  /// Drop `count` bits, at most as many as the last peek() returned;
  /// throws std::out_of_range if they run past the end of the stream.
  void consume(unsigned count) {
    if (count > end_bits_ - pos_bits_)
      throw std::out_of_range("BitReader: past end of stream");
    pos_bits_ += count;
    buf_ >>= count;
    buf_bits_ -= count;
  }

  [[nodiscard]] std::size_t bits_consumed() const { return pos_bits_; }
  [[nodiscard]] bool exhausted() const { return pos_bits_ >= end_bits_; }

 private:
  /// Top the accumulator up to at least 56 bits.
  void refill();

  std::span<const std::uint8_t> data_;
  std::size_t end_bits_;
  std::size_t pos_bits_ = 0;
  std::size_t next_byte_ = 0;  ///< first byte not yet in buf_
  std::uint64_t buf_ = 0;
  unsigned buf_bits_ = 0;
};

}  // namespace medsen::compress
