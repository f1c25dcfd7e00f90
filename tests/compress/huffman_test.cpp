#include "compress/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "crypto/chacha20.h"

namespace medsen::compress {
namespace {

TEST(Huffman, LengthsSatisfyKraft) {
  std::vector<std::uint64_t> freqs = {100, 50, 25, 12, 6, 3, 1, 1};
  const auto lengths = huffman_code_lengths(freqs);
  double kraft = 0.0;
  for (auto len : lengths)
    if (len > 0) kraft += std::pow(2.0, -static_cast<double>(len));
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs = {1000, 10, 10, 10};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(Huffman, ZeroFrequencySymbolsAbsent) {
  std::vector<std::uint64_t> freqs = {5, 0, 5};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[1], 0);
  EXPECT_GT(lengths[0], 0);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs = {0, 7, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[1], 1);
}

TEST(Huffman, AllZeroFrequencies) {
  std::vector<std::uint64_t> freqs = {0, 0, 0};
  const auto lengths = huffman_code_lengths(freqs);
  for (auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(Huffman, RespectsMaxCodeLength) {
  // Fibonacci-like frequencies force deep trees; lengths must be capped.
  std::vector<std::uint64_t> freqs;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  for (auto len : lengths) EXPECT_LE(len, kMaxCodeLength);
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  std::vector<std::uint64_t> freqs = {50, 30, 10, 5, 3, 2};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder encoder(build_codes(lengths));
  const HuffmanDecoder decoder(lengths);

  crypto::ChaChaRng rng(17);
  std::vector<std::uint16_t> symbols;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    const auto s = static_cast<std::uint16_t>(rng.uniform(6));
    symbols.push_back(s);
    encoder.encode(w, s);
  }
  const auto buf = w.finish();
  BitReader r(buf);
  for (auto expected : symbols) EXPECT_EQ(decoder.decode(r), expected);
}

TEST(Huffman, EncodingAbsentSymbolThrows) {
  std::vector<std::uint64_t> freqs = {5, 0, 5};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder encoder(build_codes(lengths));
  BitWriter w;
  EXPECT_THROW(encoder.encode(w, 1), std::runtime_error);
}

TEST(Huffman, CompressionBeatsFixedWidth) {
  // Skewed distribution: entropy ~1.16 bits << 3 fixed bits.
  std::vector<std::uint64_t> freqs = {800, 100, 50, 25, 12, 6, 4, 3};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder encoder(build_codes(lengths));
  BitWriter w;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    for (std::uint64_t i = 0; i < freqs[s]; ++i)
      encoder.encode(w, static_cast<std::uint16_t>(s));
  const std::uint64_t total =
      std::accumulate(freqs.begin(), freqs.end(), std::uint64_t{0});
  EXPECT_LT(w.bit_count(), total * 2);  // < 2 bits/symbol average
}

// Reference: read the code one bit at a time and stop at the first
// length whose canonical code range holds it. Returns the symbol, -1 for
// an invalid code, -2 if the stream ends first.
int reference_decode(const std::vector<std::uint8_t>& lengths,
                     const std::vector<std::uint8_t>& bits,
                     std::size_t& pos) {
  std::vector<std::uint32_t> count(kMaxCodeLength + 1, 0);
  unsigned max_len = 0;
  for (const auto len : lengths) {
    if (len > 0) ++count[len];
    max_len = std::max<unsigned>(max_len, len);
  }
  std::uint32_t code = 0;
  std::uint32_t first = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    if (pos >= bits.size() * 8) return -2;
    code = (code << 1) | ((bits[pos / 8] >> (pos % 8)) & 1u);
    ++pos;
    first = (first + count[len - 1]) << 1;
    if (code >= first && code < first + count[len]) {
      std::uint32_t k = code - first;
      for (std::size_t s = 0; s < lengths.size(); ++s)
        if (lengths[s] == len && k-- == 0) return static_cast<int>(s);
    }
  }
  return -1;
}

// Decode `bits` to the end with both decoders; they must agree on every
// symbol and on how and where decoding stops.
void expect_matches_reference(const std::vector<std::uint8_t>& lengths,
                              const std::vector<std::uint8_t>& bits) {
  const HuffmanDecoder decoder(lengths);
  BitReader in(bits);
  std::size_t pos = 0;
  for (;;) {
    const int expected = reference_decode(lengths, bits, pos);
    if (expected == -2) {
      EXPECT_THROW(decoder.decode(in), std::out_of_range);
      return;
    }
    if (expected == -1) {
      EXPECT_THROW(decoder.decode(in), std::runtime_error);
      return;
    }
    ASSERT_EQ(decoder.decode(in), expected);
    ASSERT_EQ(in.bits_consumed(), pos);
  }
}

std::vector<std::uint8_t> random_stream(crypto::ChaChaRng& rng,
                                        std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  rng.fill(out);
  return out;
}

TEST(Huffman, IncompleteTableLeavesUnusedCodesInvalid) {
  // Codes: 0 -> "0", 1 -> "10"; "11" has no symbol.
  const std::vector<std::uint8_t> lengths = {1, 2};
  const HuffmanDecoder decoder(lengths);
  BitWriter w;
  w.put(0b0, 1);
  w.put(0b01, 2);  // "10", first code bit first
  w.put(0b11, 2);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(decoder.decode(r), 0);
  EXPECT_EQ(decoder.decode(r), 1);
  EXPECT_THROW(decoder.decode(r), std::runtime_error);
  crypto::ChaChaRng rng(40);
  for (int i = 0; i < 50; ++i)
    expect_matches_reference(lengths, random_stream(rng, 3));
}

TEST(Huffman, OversubscribedTableDecodesReachableCodes) {
  // Lengths {1, 2, 2, 2}: "0" -> 0, "10" -> 1, "11" -> 2; symbol 3's
  // canonical code (4) does not fit in two bits and is unreachable.
  const std::vector<std::uint8_t> lengths = {1, 2, 2, 2};
  const HuffmanDecoder decoder(lengths);
  const std::vector<std::uint8_t> buf = {0b11010};  // 0, 10, 11, then 0s
  BitReader r(buf);
  EXPECT_EQ(decoder.decode(r), 0);
  EXPECT_EQ(decoder.decode(r), 1);
  EXPECT_EQ(decoder.decode(r), 2);
  EXPECT_EQ(decoder.decode(r), 0);
  crypto::ChaChaRng rng(41);
  for (const std::vector<std::uint8_t>& table :
       {lengths, std::vector<std::uint8_t>{1, 1, 1},
        std::vector<std::uint8_t>{1, 1, 2, 3}}) {
    for (int i = 0; i < 50; ++i)
      expect_matches_reference(table, random_stream(rng, 3));
  }
}

TEST(Huffman, SingleSymbolTable) {
  const std::vector<std::uint8_t> lengths = {0, 0, 1, 0};
  const HuffmanDecoder decoder(lengths);
  const std::vector<std::uint8_t> buf = {0b1000};  // three "0" codes, then "1"
  BitReader r(buf);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(decoder.decode(r), 2);
  EXPECT_THROW(decoder.decode(r), std::runtime_error);
}

TEST(Huffman, EmptyTableRejectsEveryCode) {
  const std::vector<std::uint8_t> lengths(30, 0);
  const HuffmanDecoder decoder(lengths);
  const std::vector<std::uint8_t> buf = {0x00, 0xFF};
  BitReader r(buf);
  EXPECT_THROW(decoder.decode(r), std::runtime_error);
}

TEST(Huffman, AllFifteenBitTable) {
  // 286 symbols of 15 bits each: every code goes through a second-level
  // table, and canonical codes 286..32767 are invalid.
  const std::vector<std::uint8_t> lengths(286, 15);
  const HuffmanEncoder encoder(build_codes(lengths));
  const HuffmanDecoder decoder(lengths);
  BitWriter w;
  for (std::uint16_t s = 0; s < 286; ++s) encoder.encode(w, s);
  w.put(0x7FFF, 15);  // canonical code 32767
  const auto buf = w.finish();
  BitReader r(buf);
  for (std::uint16_t s = 0; s < 286; ++s) ASSERT_EQ(decoder.decode(r), s);
  EXPECT_THROW(decoder.decode(r), std::runtime_error);
  // Truncated inside a 15-bit code: the stream, not the code, is wrong.
  const std::vector<std::uint8_t> short_buf = {0x00};
  BitReader t(short_buf);
  EXPECT_THROW(decoder.decode(t), std::out_of_range);
}

TEST(Huffman, RandomTablesMatchBitByBitReference) {
  // Arbitrary length tables (complete, incomplete, over-subscribed, long
  // codes through the second-level tables) on arbitrary streams.
  crypto::ChaChaRng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> lengths(1 + rng.uniform(286));
    const std::uint32_t max_len = 1 + rng.uniform(kMaxCodeLength);
    for (auto& len : lengths)
      len = static_cast<std::uint8_t>(
          rng.uniform(4) == 0 ? 0 : 1 + rng.uniform(max_len));
    expect_matches_reference(lengths, random_stream(rng, 1 + rng.uniform(64)));
  }
  // Tables built from real statistics, fed their own code streams.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> freqs(2 + rng.uniform(300));
    for (auto& f : freqs) f = rng.uniform(3) == 0 ? 0 : 1 + rng.uniform(1000);
    freqs[0] = 1;
    const auto lengths = huffman_code_lengths(freqs);
    const HuffmanEncoder encoder(build_codes(lengths));
    BitWriter w;
    for (int i = 0; i < 200; ++i) {
      const auto s = static_cast<std::uint16_t>(
          rng.uniform(static_cast<std::uint32_t>(freqs.size())));
      if (lengths[s] > 0) encoder.encode(w, s);
    }
    expect_matches_reference(lengths, w.finish());
  }
}

TEST(Huffman, DecoderRejectsOverlongLengths) {
  std::vector<std::uint8_t> lengths = {16};
  EXPECT_THROW(HuffmanDecoder{lengths}, std::invalid_argument);
}

}  // namespace
}  // namespace medsen::compress
