#include "compress/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/chacha20.h"

namespace medsen::compress {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, CheckValue123456789) {
  // The standard CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  std::uint32_t state = crc32_init();
  for (char c : msg) {
    const auto byte = static_cast<std::uint8_t>(c);
    state = crc32_update(state, std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(crc32_final(state), crc32(as_bytes(msg)));
}

// Bit-at-a-time CRC-32, independent of the library's lookup tables.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  crypto::ChaChaRng rng(32);
  std::vector<std::uint8_t> buf(64 + 8);
  rng.fill(buf);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + align, len);
      EXPECT_EQ(crc32(s), bitwise_crc32(s)) << "align " << align << " len "
                                            << len;
    }
  }
}

TEST(Crc32, UpdateSplitAtEveryOffsetMatchesOneShot) {
  crypto::ChaChaRng rng(33);
  std::vector<std::uint8_t> data(100);
  rng.fill(data);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32(all);
  EXPECT_EQ(whole, bitwise_crc32(all));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = crc32_update(crc32_init(), all.first(split));
    state = crc32_update(state, all.subspan(split));
    EXPECT_EQ(crc32_final(state), whole) << "split " << split;
  }
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::vector<std::uint8_t> data(100, 0x55);
  const auto original = crc32(data);
  data[50] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

TEST(Crc32, OrderSensitive) {
  const std::vector<std::uint8_t> ab = {'a', 'b'};
  const std::vector<std::uint8_t> ba = {'b', 'a'};
  EXPECT_NE(crc32(ab), crc32(ba));
}

}  // namespace
}  // namespace medsen::compress
