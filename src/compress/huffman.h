#pragma once
// Canonical Huffman coding. Symbol code lengths are computed from
// frequencies (package-merge-free heap construction with a length cap via
// frequency flattening), then canonical codes are assigned so only the
// length table needs to be transmitted.

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "compress/bitio.h"

namespace medsen::compress {

/// Maximum code length we emit (fits the 4-bit length fields used in the
/// container header).
constexpr unsigned kMaxCodeLength = 15;

/// Compute canonical code lengths for `freqs` (0-frequency symbols get
/// length 0 = absent). At most kMaxCodeLength; lengths are rebalanced if
/// the tree would exceed it.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

/// Canonical code table derived from lengths.
struct HuffmanCode {
  std::vector<std::uint16_t> codes;    ///< bit-reversed for LSB-first I/O
  std::vector<std::uint8_t> lengths;
};

/// Assign canonical codes (per deflate rules) from code lengths.
HuffmanCode build_codes(std::span<const std::uint8_t> lengths);

/// Encoder: writes symbol codes to a BitWriter.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(HuffmanCode code) : code_(std::move(code)) {}
  void encode(BitWriter& out, std::uint16_t symbol) const {
    const unsigned len = code_.lengths.at(symbol);
    if (len == 0)
      throw std::runtime_error("HuffmanEncoder: symbol has no code");
    out.put(code_.codes[symbol], len);
  }

 private:
  HuffmanCode code_;
};

/// Decoder: table-driven canonical decoding. One lookup on the next
/// kRootBits bits resolves short codes; longer ones take a second lookup
/// in a per-prefix table. It decodes exactly what reading the code one bit
/// at a time does, for any length table: incomplete tables leave unused
/// codes invalid, and in an over-subscribed table the codes that do not
/// fit their length are unreachable.
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);
  /// Decode one symbol; throws std::runtime_error on an invalid code and
  /// std::out_of_range if the code runs past the end of the stream.
  std::uint16_t decode(BitReader& in) const {
    const std::uint32_t bits = in.peek(kMaxCodeLength);
    Entry e = root_[bits & kRootMask];
    if (e.kind == Kind::kSubTable)
      e = sub_[e.value + ((bits >> kRootBits) & sub_mask_)];
    if (e.kind == Kind::kInvalid) [[unlikely]]
      reject(in);
    in.consume(e.length);
    return e.value;
  }

 private:
  static constexpr unsigned kRootBits = 10;
  static constexpr std::uint32_t kRootMask = (1u << kRootBits) - 1;
  enum class Kind : std::uint8_t { kInvalid, kSymbol, kSubTable };
  struct Entry {
    std::uint16_t value = 0;  ///< symbol, or offset of the sub-table
    std::uint8_t length = 0;  ///< code length of a symbol
    Kind kind = Kind::kInvalid;
  };

  /// Throws for a code with no symbol: std::out_of_range if the stream
  /// ends within the longest code length, else std::runtime_error.
  [[noreturn]] void reject(BitReader& in) const;

  std::array<Entry, std::size_t{1} << kRootBits> root_{};
  /// Sub-tables of 2^(max length - kRootBits) entries each, indexed by
  /// the code bits after the root prefix.
  std::vector<Entry> sub_;
  std::uint32_t sub_mask_ = 0;
  unsigned max_len_ = 0;
};

}  // namespace medsen::compress
