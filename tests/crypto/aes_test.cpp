#include "crypto/aes.h"

#include <gtest/gtest.h>

#include <array>

namespace medsen::crypto {
namespace {

// FIPS-197 Appendix C.1 AES-128 vector.
TEST(Aes128, Fips197Vector) {
  std::array<std::uint8_t, 16> key;
  std::array<std::uint8_t, 16> block;
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<std::uint8_t>(i);
    block[i] = static_cast<std::uint8_t>(i * 0x11);  // 00 11 22 ... ff
  }
  const std::array<std::uint8_t, 16> expected = {
      0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  Aes128 cipher(key);
  cipher.encrypt_block(block);
  EXPECT_EQ(block, expected);
}

TEST(Aes128Ctr, RoundTrip) {
  std::array<std::uint8_t, 16> key{};
  key[0] = 0x42;
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  const auto original = data;
  Aes128Ctr enc(key, 77);
  enc.apply(data);
  EXPECT_NE(data, original);
  Aes128Ctr dec(key, 77);
  dec.apply(data);
  EXPECT_EQ(data, original);
}

TEST(Aes128Ctr, DifferentNoncesProduceDifferentStreams) {
  std::array<std::uint8_t, 16> key{};
  std::vector<std::uint8_t> a(64, 0), b(64, 0);
  Aes128Ctr ca(key, 1), cb(key, 2);
  ca.apply(a);
  cb.apply(b);
  EXPECT_NE(a, b);
}

TEST(Aes128Ctr, StreamingMatchesOneShot) {
  std::array<std::uint8_t, 16> key{};
  key[5] = 9;
  std::vector<std::uint8_t> oneshot(100, 0xAA);
  Aes128Ctr c1(key, 3);
  c1.apply(oneshot);

  std::vector<std::uint8_t> streamed(100, 0xAA);
  Aes128Ctr c2(key, 3);
  c2.apply(std::span<std::uint8_t>(streamed.data(), 37));
  c2.apply(std::span<std::uint8_t>(streamed.data() + 37, 63));
  EXPECT_EQ(oneshot, streamed);
}

}  // namespace
}  // namespace medsen::crypto
