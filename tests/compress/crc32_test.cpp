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

// Bit-at-a-time CRC-32 state update, independent of the library's
// lookup tables and carry-less multiplies.
std::uint32_t bitwise_update(std::uint32_t c,
                             std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c;
}

std::uint32_t bitwise_crc32(std::span<const std::uint8_t> data) {
  return bitwise_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

// Lengths up to 1,100 bytes cover the hardware kernel's every path: the
// table kernel alone below 64 bytes, then up to seventeen 64-byte blocks,
// every count of 16-byte folds and every tail length.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  crypto::ChaChaRng rng(32);
  std::vector<std::uint8_t> buf(1100 + 8);
  rng.fill(buf);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + align, len);
      EXPECT_EQ(crc32(s), bitwise_crc32(s)) << "align " << align << " len "
                                            << len;
    }
  }
}

TEST(Crc32, UpdateSplitAtEveryOffsetMatchesOneShot) {
  // The incoming state stands for 300 bytes already absorbed, so it is
  // neither crc32_init() nor zero.
  constexpr std::uint32_t kIncoming = 0x9E3779B9u;
  crypto::ChaChaRng rng(33);
  std::vector<std::uint8_t> data(300);
  rng.fill(data);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32(all);
  EXPECT_EQ(whole, bitwise_crc32(all));
  const std::uint32_t continued = bitwise_update(kIncoming, all);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = crc32_update(crc32_init(), all.first(split));
    state = crc32_update(state, all.subspan(split));
    EXPECT_EQ(crc32_final(state), whole) << "split " << split;
    state = crc32_update(kIncoming, all.first(split));
    EXPECT_EQ(crc32_update(state, all.subspan(split)), continued)
        << "split " << split;
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

// The kernels behind crc32_update(), called directly. The table kernel is
// the reference on any CPU; the carry-less multiply kernel must agree
// with it on every length, alignment and incoming state, and its test
// skips only when CPUID lacks PCLMULQDQ.
TEST(Crc32Backends, PortableKernelMatchesBitwiseReference) {
  crypto::ChaChaRng rng(34);
  std::vector<std::uint8_t> buf(300 + 8);
  rng.fill(buf);
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::uint32_t state = rng.next_u32();
    const std::span<const std::uint8_t> s(buf.data() + len % 8, len);
    EXPECT_EQ(detail::crc32_update_portable(state, s), bitwise_update(state, s))
        << "len " << len;
  }
}

TEST(Crc32Backends, ClmulMatchesPortableOnSeededInputs) {
  if (!util::cpu_features().pclmul)
    GTEST_SKIP() << "CPUID reports no carry-less multiply (pclmulqdq)";
#if MEDSEN_X86
  crypto::ChaChaRng rng(35);
  std::vector<std::uint8_t> buf(60000 + 16);
  rng.fill(buf);
  for (int trial = 0; trial < 3000; ++trial) {
    // Mostly short, where the fold count and tail change fastest, and
    // now and then as long as the relay's coded block.
    const std::size_t len =
        trial % 10 == 0 ? rng.uniform(60001) : rng.uniform(1200);
    const std::span<const std::uint8_t> s(buf.data() + rng.uniform(16), len);
    const std::uint32_t state = rng.next_u32();
    EXPECT_EQ(detail::crc32_update_clmul(state, s),
              detail::crc32_update_portable(state, s))
        << "trial " << trial << " len " << len;
  }
#endif
}

}  // namespace
}  // namespace medsen::compress
