// Pinned outputs of the session-plane crypto. Every value below is the
// portable reference implementation's output; a backend or refactor
// that moves a single byte fails here, whatever CPU runs the suite.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/sha256.h"

namespace medsen::crypto {
namespace {

std::string hex_of(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0x0f]);
  }
  return out;
}

/// A fixed, non-trivial byte pattern of length n.
std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t mul,
                                  std::uint8_t add) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(i * mul + add);
  return out;
}

/// SHA-256 of the first 1,000 keystream bytes of AES-128-CTR.
std::string ctr_keystream_digest(std::uint64_t nonce) {
  const auto key = pattern(16, 7, 3);
  Aes128Ctr ctr(std::span<const std::uint8_t, 16>(key.data(), 16), nonce);
  std::vector<std::uint8_t> stream(1000, 0);
  ctr.apply(stream);
  return to_hex(sha256(stream));
}

TEST(PinnedBytes, CtrKeystreamNonce0) {
  EXPECT_EQ(ctr_keystream_digest(0),
            "181f70f6d1e5fec027cbaa6ab9018dab376dfa3b46d65160d5370a4bb5377d40");
}

TEST(PinnedBytes, CtrKeystreamNonce1) {
  EXPECT_EQ(ctr_keystream_digest(1),
            "d0b6ee6eba84d3ea8f76d04096d512a7eadb7f52c1fd5ac0746b30b57e8f018f");
}

// 2^32: the nonce's upper half, which a 32-bit truncation would drop.
TEST(PinnedBytes, CtrKeystreamNonce2Pow32) {
  EXPECT_EQ(ctr_keystream_digest(std::uint64_t{1} << 32),
            "d0469552c2474a804f8464c1a933662a93f223297471e573cfe5b8606294f38e");
}

// 40 bytes: two full CMAC blocks plus a truncated third.
TEST(PinnedBytes, KdfCmac) {
  const auto key = pattern(16, 13, 1);
  const auto context = pattern(24, 5, 9);
  EXPECT_EQ(hex_of(kdf_cmac(key, "medsen-pin", context, 40)),
            "7254299ddad2c19c21e0701b332f658611177e01"
            "3b116dc8b152ab25f4b5a12c56c3102f561b732e");
}

TEST(PinnedBytes, DiversifyDeviceKey) {
  const auto master = pattern(16, 29, 17);
  EXPECT_EQ(hex_of(diversify_device_key(master, 0x0123456789abcdefULL, 7)),
            "6abb1cc316ea15585c352295c8e181d5");
}

TEST(PinnedBytes, DeriveSessionMacKey) {
  const auto device_key = pattern(16, 3, 200);
  const auto rnd_a = pattern(16, 11, 0xA0);
  const auto rnd_b = pattern(16, 17, 0xB0);
  EXPECT_EQ(hex_of(derive_session_mac_key(device_key, rnd_a, rnd_b)),
            "af66e9530d68ae41fe94d80bac27e758687e40c4710270a6c91b76781c0794f5");
}

// A 32-byte key takes the SHA-256 normalization path first.
TEST(PinnedBytes, DeriveSessionMacKeyFromLongKey) {
  const auto device_key = pattern(32, 19, 5);
  const auto rnd_a = pattern(16, 11, 0xA0);
  const auto rnd_b = pattern(16, 17, 0xB0);
  EXPECT_EQ(hex_of(derive_session_mac_key(device_key, rnd_a, rnd_b)),
            "516123a5e5f12ae28538392d75089328636cbd07e56207e55e9fb41f30eb94f3");
}

TEST(PinnedBytes, SessionProof) {
  const auto device_key = pattern(16, 3, 200);
  const auto rnd_a = pattern(16, 11, 0xA0);
  const auto rnd_b = pattern(16, 17, 0xB0);
  EXPECT_EQ(hex_of(session_proof(device_key, rnd_a, rnd_b)),
            "53c5b892bc343d4aacbbdba3332ff33e");
}

}  // namespace
}  // namespace medsen::crypto
