// Differential tests between the crypto backends. The portable kernels
// are the reference: they are called directly here, on any CPU, and
// checked against the FIPS vectors. The hardware kernels must then agree
// with them byte for byte; those tests skip only when CPUID lacks the
// feature. The streaming tests run through the dispatched path, whatever
// backend this CPU selects.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "crypto/aes.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace medsen::crypto {
namespace {

using detail::AesRoundKeys;
using detail::Sha256State;

constexpr Sha256State kSha256Init = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::array<std::uint8_t, 16> fips197_key() {
  std::array<std::uint8_t, 16> key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(i);
  return key;
}

std::array<std::uint8_t, 16> fips197_plaintext() {
  std::array<std::uint8_t, 16> block{};
  for (std::size_t i = 0; i < block.size(); ++i)
    block[i] = static_cast<std::uint8_t>(i * 0x11);
  return block;
}

// FIPS 180-4's "abc": one padded block through the portable kernel.
TEST(Sha256Backends, PortableKernelMatchesFips180Abc) {
  std::array<std::uint8_t, 64> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // bit length
  Sha256State state = kSha256Init;
  detail::sha256_blocks_portable(state, block.data(), 1);
  const Sha256State expected = {0xba7816bf, 0x8f01cfea, 0x414140de,
                                0x5dae2223, 0xb00361a3, 0x96177a9c,
                                0xb410ff61, 0xf20015ad};
  EXPECT_EQ(state, expected);
}

TEST(Sha256Backends, ShaNiMatchesPortableOnSeededInputs) {
  if (!detail::cpu_features().sha_ni)
    GTEST_SKIP() << "CPUID reports no SHA extensions (sha_ni)";
#if MEDSEN_CRYPTO_X86
  std::mt19937_64 rng(0x5a1);
  for (int trial = 0; trial < 10000; ++trial) {
    Sha256State start;
    for (auto& word : start) word = static_cast<std::uint32_t>(rng());
    const std::size_t count = 1 + rng() % 8;
    const auto data = random_bytes(rng, 64 * count);
    Sha256State portable = start;
    Sha256State hardware = start;
    detail::sha256_blocks_portable(portable, data.data(), count);
    detail::sha256_blocks_shani(hardware, data.data(), count);
    ASSERT_EQ(portable, hardware) << "trial " << trial << ", " << count
                                  << " blocks";
  }
#endif
}

TEST(Sha256Backends, SplitUpdateMatchesOneShotAtEveryOffset) {
  std::mt19937_64 rng(0x5b1);
  const auto message = random_bytes(rng, 300);
  const std::span<const std::uint8_t> all(message);
  for (std::size_t len = 0; len <= all.size(); ++len) {
    const auto whole = sha256(all.first(len));
    for (std::size_t cut = 0; cut <= len; ++cut) {
      Sha256 h;
      h.update(all.first(cut));
      h.update(all.subspan(cut, len - cut));
      ASSERT_EQ(h.finish(), whole) << "length " << len << ", cut " << cut;
    }
  }
}

static_assert(!std::is_copy_constructible_v<HmacSha256>);
static_assert(!std::is_copy_assignable_v<HmacSha256>);

TEST(HmacSha256, SplitAtEveryOffsetMatchesOneShot) {
  std::mt19937_64 rng(0x4ac);
  const auto message = random_bytes(rng, 200);
  const std::span<const std::uint8_t> all(message);
  for (const std::size_t key_len : {0u, 16u, 32u, 64u, 131u}) {
    const auto key = random_bytes(rng, key_len);
    const auto whole = hmac_sha256(key, all);
    for (std::size_t cut = 0; cut <= all.size(); ++cut) {
      HmacSha256 mac(key);
      mac.update(all.first(cut));
      mac.update(all.subspan(cut));
      ASSERT_EQ(mac.finish(), whole) << "key " << key_len << ", cut " << cut;
    }
  }
}

// FIPS-197 Appendix C.1 through the portable kernels directly.
TEST(Aes128Backends, PortableKernelMatchesFips197C1) {
  const auto key = fips197_key();
  AesRoundKeys round_keys{};
  detail::aes128_expand_key_portable(key.data(), round_keys);
  // round[10].k_sch of Appendix C.1.
  const std::array<std::uint8_t, 16> last_round_key = {
      0x13, 0x11, 0x1d, 0x7f, 0xe3, 0x94, 0x4a, 0x17,
      0xf3, 0x07, 0xa7, 0x8b, 0x4d, 0x2b, 0x30, 0xc5};
  EXPECT_TRUE(std::equal(last_round_key.begin(), last_round_key.end(),
                         round_keys.begin() + 160));
  auto block = fips197_plaintext();
  detail::aes128_encrypt_portable(round_keys, block.data());
  const std::array<std::uint8_t, 16> expected = {
      0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  EXPECT_EQ(block, expected);
}

TEST(Aes128Backends, AesNiMatchesPortableOnFips197C1) {
  if (!detail::cpu_features().aes_ni)
    GTEST_SKIP() << "CPUID reports no AES-NI (aes)";
#if MEDSEN_CRYPTO_X86
  const auto key = fips197_key();
  AesRoundKeys portable_keys{}, hardware_keys{};
  detail::aes128_expand_key_portable(key.data(), portable_keys);
  detail::aes128_expand_key_ni(key.data(), hardware_keys);
  EXPECT_EQ(portable_keys, hardware_keys);
  auto portable = fips197_plaintext();
  auto hardware = portable;
  detail::aes128_encrypt_portable(portable_keys, portable.data());
  detail::aes128_encrypt_ni(hardware_keys, hardware.data());
  EXPECT_EQ(portable, hardware);
#endif
}

TEST(Aes128Backends, AesNiMatchesPortableOnSeededKeys) {
  if (!detail::cpu_features().aes_ni)
    GTEST_SKIP() << "CPUID reports no AES-NI (aes)";
#if MEDSEN_CRYPTO_X86
  std::mt19937_64 rng(0xae5);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto key = random_bytes(rng, 16);
    AesRoundKeys portable_keys{}, hardware_keys{};
    detail::aes128_expand_key_portable(key.data(), portable_keys);
    detail::aes128_expand_key_ni(key.data(), hardware_keys);
    ASSERT_EQ(portable_keys, hardware_keys) << "trial " << trial;
    for (int b = 0; b < 4; ++b) {
      const auto plain = random_bytes(rng, 16);
      std::array<std::uint8_t, 16> portable{}, hardware{};
      std::copy(plain.begin(), plain.end(), portable.begin());
      hardware = portable;
      detail::aes128_encrypt_portable(portable_keys, portable.data());
      detail::aes128_encrypt_ni(hardware_keys, hardware.data());
      ASSERT_EQ(portable, hardware) << "trial " << trial << ", block " << b;
    }
  }
#endif
}

}  // namespace
}  // namespace medsen::crypto
