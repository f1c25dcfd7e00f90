// Fuzz target: differential check of the kernel backends. The portable
// kernels are the reference; every input must produce the same bytes
// through the backend the CPU dispatches to (SHA-NI, AES-NI, PCLMULQDQ)
// and through the streaming interfaces, however the input is split.
//
// Input layout (every byte string is valid):
//   [0]      HMAC key length (0..255; clamped to what follows)
//   [1]      split point, scaled to the message length
//   [2..]    HMAC key, then the HMAC message
// Checks, any mismatch aborting:
//   * SHA-256 of the whole input: portable kernel vs sha256(), and vs a
//     Sha256 fed in two pieces split at the scaled offset
//   * HmacSha256 fed in two pieces vs one-shot hmac_sha256()
//   * AES-128 keyed by the first 16 input bytes: portable vs AES-NI
//     round keys, and every 16-byte block of the input encrypted by both
//   * CRC-32 of the whole input: the table kernel vs crc32() and vs
//     crc32_update() fed in two pieces split at the scaled offset

#include "fuzz_target.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <span>

#include "compress/crc32.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace {

using medsen::crypto::Sha256Digest;
namespace detail = medsen::crypto::detail;

/// SHA-256 with FIPS 180-4 padding around the portable block kernel
/// only, independent of Sha256's buffering.
Sha256Digest portable_sha256(std::span<const std::uint8_t> data) {
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  const std::size_t full = data.size() / 64;
  if (full > 0) detail::sha256_blocks_portable(state, data.data(), full);
  std::array<std::uint8_t, 128> tail{};
  const std::size_t rest = data.size() - 64 * full;
  if (rest > 0) std::memcpy(tail.data(), data.data() + 64 * full, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i)
    tail[64 * tail_blocks - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  detail::sha256_blocks_portable(state, tail.data(), tail_blocks);
  Sha256Digest digest{};
  for (std::size_t i = 0; i < 32; ++i)
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return digest;
}

void check_sha256(std::span<const std::uint8_t> input, std::size_t split) {
  const auto reference = portable_sha256(input);
  if (medsen::crypto::sha256(input) != reference) std::abort();
  medsen::crypto::Sha256 streamed;
  streamed.update(input.first(split));
  streamed.update(input.subspan(split));
  if (streamed.finish() != reference) std::abort();
}

void check_hmac(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> message, std::size_t split) {
  const auto one_shot = medsen::crypto::hmac_sha256(key, message);
  medsen::crypto::HmacSha256 mac(key);
  mac.update(message.first(split));
  mac.update(message.subspan(split));
  if (mac.finish() != one_shot) std::abort();
}

void check_aes(std::span<const std::uint8_t> input) {
#if MEDSEN_X86
  if (!medsen::util::cpu_features().aes_ni || input.size() < 16) return;
  detail::AesRoundKeys portable_keys{}, hardware_keys{};
  detail::aes128_expand_key_portable(input.data(), portable_keys);
  detail::aes128_expand_key_ni(input.data(), hardware_keys);
  if (portable_keys != hardware_keys) std::abort();
  for (std::size_t at = 0; at + 16 <= input.size(); at += 16) {
    std::array<std::uint8_t, 16> portable{}, hardware{};
    std::memcpy(portable.data(), input.data() + at, 16);
    hardware = portable;
    detail::aes128_encrypt_portable(portable_keys, portable.data());
    detail::aes128_encrypt_ni(hardware_keys, hardware.data());
    if (portable != hardware) std::abort();
  }
#else
  (void)input;
#endif
}

void check_crc32(std::span<const std::uint8_t> input, std::size_t split) {
  namespace compress = medsen::compress;
  const std::uint32_t reference =
      compress::detail::crc32_update_portable(compress::crc32_init(), input);
  if (compress::crc32(input) != compress::crc32_final(reference)) std::abort();
  std::uint32_t state = compress::crc32_update(compress::crc32_init(),
                                               input.first(split));
  state = compress::crc32_update(state, input.subspan(split));
  if (state != reference) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  const std::size_t key_len = size > 0 ? data[0] : 0;
  const std::size_t split_byte = size > 1 ? data[1] : 0;
  check_sha256(input, split_byte * size / 255);

  const auto body = input.subspan(std::min<std::size_t>(2, size));
  const auto key = body.first(std::min(key_len, body.size()));
  const auto message = body.subspan(key.size());
  check_hmac(key, message, split_byte * message.size() / 255);

  check_aes(input);
  check_crc32(input, split_byte * size / 255);
  return 0;
}
