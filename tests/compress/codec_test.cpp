#include "compress/codec.h"

#include <gtest/gtest.h>

#include <string>

#include "compress/lzss.h"
#include "crypto/chacha20.h"
#include "sim/acquisition.h"
#include "util/csv.h"

namespace medsen::compress {
namespace {

TEST(Codec, EmptyRoundTrip) {
  const auto packed = compress({});
  EXPECT_TRUE(decompress(packed).empty());
}

TEST(Codec, TextRoundTrip) {
  const std::string text =
      "time,ch500000\n0,1.0001\n0.0022,0.9998\n0.0044,1.0002\n";
  const auto packed = compress_string(text);
  EXPECT_EQ(decompress_string(packed), text);
}

TEST(Codec, CsvLikeDataCompressesWell) {
  // The paper's 600 MB -> 240 MB (2.5x) claim is on CSV sensor dumps;
  // structurally similar data must compress by at least 2x here.
  std::string csv = "time,ch500000,ch1000000\n";
  crypto::ChaChaRng rng(3);
  for (int i = 0; i < 5000; ++i) {
    csv += std::to_string(i * 0.00222);
    csv += ",0.99";
    csv += std::to_string(rng.uniform(1000));
    csv += ",1.00";
    csv += std::to_string(rng.uniform(100));
    csv += "\n";
  }
  const auto packed = compress_string(csv);
  EXPECT_GT(compression_ratio(csv.size(), packed.size()), 2.0);
  EXPECT_EQ(decompress_string(packed), csv);
}

TEST(Codec, RandomDataRoundTrips) {
  crypto::ChaChaRng rng(7);
  std::vector<std::uint8_t> data(10000);
  rng.fill(data);
  const auto packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
}

TEST(Codec, AllByteValuesRoundTrip) {
  std::vector<std::uint8_t> data;
  for (int rep = 0; rep < 5; ++rep)
    for (int b = 0; b < 256; ++b)
      data.push_back(static_cast<std::uint8_t>(b));
  const auto packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
}

TEST(Codec, OverlappingBackReferencesRoundTrip) {
  // `dist` distinct bytes, then `len` more that repeat them: one literal
  // per pattern byte and one back-reference (len, dist) that overlaps its
  // own output whenever len > dist. The decoder copies such a reference
  // in runs of dist, 2 dist, 4 dist, ... bytes, so the lengths are the
  // shortest and longest matches and those next to a run boundary.
  for (std::size_t dist = 1; dist <= 20; ++dist) {
    std::vector<std::size_t> lengths = {kMinMatch, kMinMatch + 1,
                                        kMaxMatch - 1, kMaxMatch};
    for (std::size_t run = dist; run <= kMaxMatch + 1; run = 2 * run + dist)
      for (const std::size_t len : {run - 1, run, run + 1})
        if (len >= kMinMatch && len <= kMaxMatch) lengths.push_back(len);
    for (const std::size_t len : lengths) {
      std::vector<std::uint8_t> data;
      for (std::size_t i = 0; i < dist; ++i)
        data.push_back(static_cast<std::uint8_t>(len + 37 * i));
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(data[data.size() - dist]);
      const auto tokens = lzss_compress(data);
      ASSERT_EQ(tokens.size(), dist + 1) << dist << "/" << len;
      ASSERT_EQ(tokens.back().distance, dist);
      ASSERT_EQ(tokens.back().length, len);
      ASSERT_EQ(decompress(compress(data)), data) << dist << "/" << len;
    }
  }
}

TEST(Codec, BadMagicThrows) {
  auto packed = compress_string("hello world hello world");
  packed[0] ^= 0xFF;
  EXPECT_THROW(decompress(packed), std::runtime_error);
}

TEST(Codec, CorruptedPayloadDetected) {
  auto packed = compress_string(std::string(1000, 'q') + "tail");
  // Flip a byte in the entropy-coded payload (past the 16-byte header).
  packed[packed.size() - 3] ^= 0x10;
  EXPECT_THROW(decompress(packed), std::runtime_error);
}

TEST(Codec, TruncatedInputThrows) {
  const auto packed = compress_string("some reasonably sized content here");
  const std::span<const std::uint8_t> cut(packed.data(), packed.size() / 2);
  EXPECT_THROW(decompress(cut), std::runtime_error);
}

TEST(Codec, SingleByteRoundTrip) {
  const std::vector<std::uint8_t> data = {42};
  EXPECT_EQ(decompress(compress(data)), data);
}

TEST(Codec, RatioHelper) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 0.0);
}

class CodecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecSizeSweep, RoundTripAtManySizes) {
  crypto::ChaChaRng rng(GetParam() + 100);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data)
    b = static_cast<std::uint8_t>(rng.uniform(16));  // compressible
  const auto packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecSizeSweep,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 255, 256,
                                           1000, 65536));

TEST(Codec, TrailingBytesRejected) {
  auto packed = compress_string("strict containers end where they end");
  packed.push_back(0x00);
  EXPECT_THROW(decompress(packed), std::runtime_error);
  packed.pop_back();
  EXPECT_NO_THROW(decompress(packed));
}

TEST(Codec, HostileOriginalSizeDoesNotPreallocate) {
  // Corrupt the header's original-size field to 2^60: the decoder must
  // fail with size/CRC mismatch, not attempt an exabyte reserve().
  auto packed = compress_string("header fields are attacker-controlled");
  for (std::size_t i = 4; i < 12; ++i) packed[i] = 0xFF;
  EXPECT_THROW(decompress(packed), std::runtime_error);
}

TEST(Codec, BitFlipSweepNeverCrashes) {
  // Any single-bit corruption anywhere in the container must surface as
  // the structured corruption error, never UB or a crash.
  const auto packed = compress_string("bit flip sweep over the container");
  for (std::size_t bit = 0; bit < packed.size() * 8; ++bit) {
    auto corrupted = packed;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const auto out = decompress(corrupted);
      // A flip that survives CRC+size checks must decode identically.
      EXPECT_EQ(out.size(), std::string("bit flip sweep over the container")
                                .size());
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace medsen::compress
