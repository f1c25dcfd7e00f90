#pragma once
// Private to src/crypto, the tests that compare its backends, and
// bench_fleet_load, which records the backend it ran on: the one CPUID
// probe, and the block kernels it chooses between.
//
// Sha256 and Aes128 each run a portable kernel everywhere and, on
// x86-64 CPUs that report the instructions, a hardware kernel instead.
// The probe runs once, on first use; there is no option, environment
// variable or build flag. Both kernels of a pair produce the same bytes,
// which the pinned-output tests, the backend differential tests and the
// fuzz_crypto target hold them to. The portable kernels are the
// reference: tests call them directly, on any CPU.

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define MEDSEN_CRYPTO_X86 1
#else
#define MEDSEN_CRYPTO_X86 0
#endif

namespace medsen::crypto::detail {

struct CpuFeatures {
  bool sha_ni = false;  ///< SHA extensions + SSSE3 + SSE4.1
  bool aes_ni = false;  ///< AES-NI
};

/// What the CPU reports, probed once. All false off x86-64.
const CpuFeatures& cpu_features();

using Sha256State = std::array<std::uint32_t, 8>;
using AesRoundKeys = std::array<std::uint8_t, 176>;  ///< 11 round keys

/// FIPS 180-4 compression of `count` consecutive 64-byte blocks.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t count);
/// FIPS 197 key expansion into 11 round keys, in FIPS byte order.
void aes128_expand_key_portable(const std::uint8_t* key,
                                AesRoundKeys& round_keys);
/// FIPS 197 encryption of one 16-byte block in place.
void aes128_encrypt_portable(const AesRoundKeys& round_keys,
                             std::uint8_t* block);

#if MEDSEN_CRYPTO_X86
// The hardware kernels. Call them only when cpu_features() reports the
// feature; they fault with an illegal instruction otherwise.
void sha256_blocks_shani(Sha256State& state, const std::uint8_t* blocks,
                         std::size_t count);
void aes128_expand_key_ni(const std::uint8_t* key, AesRoundKeys& round_keys);
void aes128_encrypt_ni(const AesRoundKeys& round_keys, std::uint8_t* block);
#endif

}  // namespace medsen::crypto::detail
