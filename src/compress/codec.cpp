#include "compress/codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "compress/crc32.h"
#include "compress/huffman.h"
#include "util/serialize.h"

namespace medsen::compress {

namespace {

constexpr std::uint32_t kMagic = 0x4D535A31;  // "MSZ1"
constexpr std::size_t kHeaderBytes = 16;       // magic, size, CRC-32

// Deflate-style length slots for codes 257..285.
constexpr std::uint16_t kLenBase[29] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                        1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                        4, 4, 4, 4, 5, 5, 5, 5, 0};

// Deflate-style distance slots for codes 0..29.
constexpr std::uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kLitLenSymbols = 286;  // 0..255 lit, 256 EOB, 257..285
constexpr std::size_t kDistSymbols = 30;
constexpr std::uint16_t kEndOfBlock = 256;

// Slot lookup tables: a value's slot is the last one whose base does not
// exceed it. Lengths index kLengthSlot directly.
constexpr auto kLengthSlot = [] {
  std::array<std::uint8_t, kMaxMatch + 1> t{};
  std::uint8_t s = 0;
  for (std::size_t len = kMinMatch; len <= kMaxMatch; ++len) {
    while (s + 1 < 29 && kLenBase[s + 1] <= len) ++s;
    t[len] = s;
  }
  return t;
}();

// Distances up to 256 get an entry each. Past 256 every slot base is one
// more than a multiple of 128, so one entry per 128 distances is exact.
constexpr std::size_t dist_index(std::size_t dist) {
  return dist <= 256 ? dist - 1 : 256 + ((dist - 1) >> 7);
}
static_assert([] {
  for (std::size_t s = 16; s < 30; ++s)
    if ((kDistBase[s] - 1) % 128 != 0) return false;
  return kDistBase[16] == 257;
}());

constexpr auto kDistSlot = [] {
  std::array<std::uint8_t, dist_index(kWindowSize) + 1> t{};
  std::uint8_t s = 0;
  for (std::size_t dist = 1; dist <= kWindowSize; ++dist) {
    while (s + 1 < 30 && kDistBase[s + 1] <= dist) ++s;
    t[dist_index(dist)] = s;
  }
  return t;
}();

unsigned distance_slot(unsigned dist) { return kDistSlot[dist_index(dist)]; }

}  // namespace

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> data,
                                   const LzssConfig& config) {
  const std::vector<Token> tokens = lzss_compress(data, config);

  // Symbol statistics.
  std::array<std::uint64_t, kLitLenSymbols> lit_freq{};
  std::array<std::uint64_t, kDistSymbols> dist_freq{};
  for (const Token& t : tokens) {
    if (t.is_match) {
      ++lit_freq[257 + kLengthSlot[t.length]];
      ++dist_freq[distance_slot(t.distance)];
    } else {
      ++lit_freq[t.literal];
    }
  }
  ++lit_freq[kEndOfBlock];

  const auto lit_lengths = huffman_code_lengths(lit_freq);
  const auto dist_lengths = huffman_code_lengths(dist_freq);
  const HuffmanEncoder lit_enc(build_codes(lit_lengths));
  const HuffmanEncoder dist_enc(build_codes(dist_lengths));

  // The statistics give the exact payload size, so the container is
  // allocated once and the header and bit stream go straight into it.
  std::uint64_t payload_bits = (kLitLenSymbols + kDistSymbols) * 4;
  for (std::size_t s = 0; s < kLitLenSymbols; ++s) {
    const unsigned extra = s > kEndOfBlock ? kLenExtra[s - 257] : 0;
    payload_bits += lit_freq[s] * (lit_lengths[s] + extra);
  }
  for (std::size_t s = 0; s < kDistSymbols; ++s)
    payload_bits += dist_freq[s] * (dist_lengths[s] + kDistExtra[s]);

  util::ByteWriter header;
  header.u32(kMagic);
  header.u64(data.size());
  header.u32(crc32(data));
  BitWriter bits(header.take(), static_cast<std::size_t>(payload_bits));
  // Code-length tables, 4 bits each (kMaxCodeLength = 15 fits).
  for (auto len : lit_lengths) bits.put(len, 4);
  for (auto len : dist_lengths) bits.put(len, 4);
  // Token stream.
  for (const Token& t : tokens) {
    if (t.is_match) {
      const unsigned ls = kLengthSlot[t.length];
      lit_enc.encode(bits, static_cast<std::uint16_t>(257 + ls));
      bits.put(t.length - kLenBase[ls], kLenExtra[ls]);
      const unsigned ds = distance_slot(t.distance);
      dist_enc.encode(bits, static_cast<std::uint16_t>(ds));
      bits.put(t.distance - kDistBase[ds], kDistExtra[ds]);
    } else {
      lit_enc.encode(bits, t.literal);
    }
  }
  lit_enc.encode(bits, kEndOfBlock);
  return bits.finish();
}

namespace {

std::vector<std::uint8_t> decompress_impl(std::span<const std::uint8_t> packed);

}  // namespace

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> packed) {
  try {
    return decompress_impl(packed);
  } catch (const std::out_of_range&) {
    // Truncated bit or byte streams surface as the same corruption error
    // class as CRC failures, so callers handle one exception type.
    throw std::runtime_error("decompress: truncated stream");
  }
}

namespace {

std::vector<std::uint8_t> decompress_impl(
    std::span<const std::uint8_t> packed) {
  util::ByteReader header(packed);
  if (header.u32() != kMagic)
    throw std::runtime_error("decompress: bad magic");
  const std::uint64_t original_size = header.u64();
  const std::uint32_t expected_crc = header.u32();

  BitReader bits(packed.subspan(kHeaderBytes));
  std::array<std::uint8_t, kLitLenSymbols> lit_lengths{};
  for (auto& len : lit_lengths) len = static_cast<std::uint8_t>(bits.get(4));
  std::array<std::uint8_t, kDistSymbols> dist_lengths{};
  for (auto& len : dist_lengths) len = static_cast<std::uint8_t>(bits.get(4));
  const HuffmanDecoder lit_dec(lit_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);

  // `original_size` comes off the wire: reserve only what a genuine
  // stream could produce (the compressed body bounds it) so a tiny
  // corrupt header cannot demand a multi-gigabyte allocation up front.
  constexpr std::size_t kMaxUpfrontReserve = std::size_t{1} << 20;
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(original_size, kMaxUpfrontReserve)));
  for (;;) {
    if (out.size() > original_size)
      throw std::runtime_error("decompress: size mismatch");
    const std::uint16_t sym = lit_dec.decode(bits);
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    if (sym == kEndOfBlock) break;
    const unsigned ls = sym - 257u;
    if (ls >= 29) throw std::runtime_error("decompress: bad length symbol");
    const unsigned len = kLenBase[ls] + bits.get(kLenExtra[ls]);
    const std::uint16_t dsym = dist_dec.decode(bits);
    if (dsym >= kDistSymbols)
      throw std::runtime_error("decompress: bad distance symbol");
    const unsigned dist = kDistBase[dsym] + bits.get(kDistExtra[dsym]);
    const std::size_t start = out.size();
    if (dist == 0 || dist > start)
      throw std::runtime_error("decompress: invalid back-reference");
    out.resize(start + len);
    std::uint8_t* dst = out.data() + start;
    const std::uint8_t* src = dst - dist;
    if (dist >= len) {
      std::memcpy(dst, src, len);
    } else if (dist == 1) {
      std::memset(dst, *src, len);
    } else {
      // Overlapping copy: the match repeats its first `dist` bytes. Once
      // `done` (a whole number of periods) bytes are written, the
      // `dist + done` bytes from `src` are periods too and can be copied
      // to `dst + done` in one non-overlapping memcpy, so the run doubles
      // each step.
      for (std::size_t done = 0; done < len;) {
        const std::size_t n = std::min<std::size_t>(dist + done, len - done);
        std::memcpy(dst + done, src, n);
        done += n;
      }
    }
  }

  if (out.size() != original_size)
    throw std::runtime_error("decompress: size mismatch");
  if (crc32(out) != expected_crc)
    throw std::runtime_error("decompress: CRC mismatch");
  // Strictness: the container must end where the bit stream ends (plus
  // byte-boundary padding) — appended garbage is rejected, not ignored.
  const std::size_t stream_bytes = (bits.bits_consumed() + 7) / 8;
  if (packed.size() - kHeaderBytes > stream_bytes)
    throw std::runtime_error("decompress: trailing bytes");
  return out;
}

}  // namespace

std::vector<std::uint8_t> compress_string(const std::string& text) {
  return compress(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string decompress_string(std::span<const std::uint8_t> packed) {
  const auto bytes = decompress(packed);
  return std::string(bytes.begin(), bytes.end());
}

double compression_ratio(std::size_t original_size,
                         std::size_t compressed_size) {
  if (compressed_size == 0) return 0.0;
  return static_cast<double>(original_size) /
         static_cast<double>(compressed_size);
}

}  // namespace medsen::compress
