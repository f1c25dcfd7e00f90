#include "crypto/aes.h"

#include <cstring>

#include "crypto/kernels.h"
#include "util/secure_zero.h"

#if MEDSEN_X86
#include <immintrin.h>
#endif

namespace medsen::crypto {

namespace {

constexpr std::uint8_t kSBox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

}  // namespace

namespace detail {

void aes128_expand_key_portable(const std::uint8_t* key,
                                AesRoundKeys& round_keys) {
  std::memcpy(round_keys.data(), key, Aes128::kKeySize);
  for (int i = 4; i < 44; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, round_keys.data() + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      const std::uint8_t t = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSBox[temp[1]] ^ kRcon[i / 4 - 1]);
      temp[1] = kSBox[temp[2]];
      temp[2] = kSBox[temp[3]];
      temp[3] = kSBox[t];
    }
    for (int j = 0; j < 4; ++j)
      round_keys[static_cast<std::size_t>(4 * i + j)] =
          round_keys[static_cast<std::size_t>(4 * (i - 4) + j)] ^ temp[j];
  }
}

void aes128_encrypt_portable(const AesRoundKeys& round_keys,
                             std::uint8_t* s) {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i)
      s[i] ^= round_keys[static_cast<std::size_t>(16 * round + i)];
  };
  add_round_key(0);
  for (int round = 1; round <= 10; ++round) {
    // SubBytes
    for (int i = 0; i < 16; ++i) s[i] = kSBox[s[i]];
    // ShiftRows (state laid out column-major: s[col*4 + row])
    for (int row = 1; row < 4; ++row) {
      std::uint8_t tmp[4];
      for (int col = 0; col < 4; ++col)
        tmp[col] = s[((col + row) % 4) * 4 + row];
      for (int col = 0; col < 4; ++col) s[col * 4 + row] = tmp[col];
    }
    // MixColumns (skipped in the final round)
    if (round != 10) {
      for (int col = 0; col < 4; ++col) {
        std::uint8_t* c = s + 4 * col;
        const std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
        c[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        c[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        c[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        c[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    }
    add_round_key(round);
  }
}

#if MEDSEN_X86

#define MEDSEN_AES_NI __attribute__((target("aes")))

namespace {

/// One key-expansion step; AESKEYGENASSIST takes its round constant as
/// an immediate, hence the template.
template <int kRoundConstant>
MEDSEN_AES_NI inline __m128i expand_step(__m128i key) {
  const __m128i assist = _mm_shuffle_epi32(
      _mm_aeskeygenassist_si128(key, kRoundConstant), 0xFF);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

}  // namespace

MEDSEN_AES_NI void aes128_expand_key_ni(const std::uint8_t* key,
                                        AesRoundKeys& round_keys) {
  auto* rk = reinterpret_cast<__m128i*>(round_keys.data());
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  _mm_storeu_si128(rk, k);
  k = expand_step<0x01>(k); _mm_storeu_si128(rk + 1, k);
  k = expand_step<0x02>(k); _mm_storeu_si128(rk + 2, k);
  k = expand_step<0x04>(k); _mm_storeu_si128(rk + 3, k);
  k = expand_step<0x08>(k); _mm_storeu_si128(rk + 4, k);
  k = expand_step<0x10>(k); _mm_storeu_si128(rk + 5, k);
  k = expand_step<0x20>(k); _mm_storeu_si128(rk + 6, k);
  k = expand_step<0x40>(k); _mm_storeu_si128(rk + 7, k);
  k = expand_step<0x80>(k); _mm_storeu_si128(rk + 8, k);
  k = expand_step<0x1b>(k); _mm_storeu_si128(rk + 9, k);
  k = expand_step<0x36>(k); _mm_storeu_si128(rk + 10, k);
}

MEDSEN_AES_NI void aes128_encrypt_ni(const AesRoundKeys& round_keys,
                                     std::uint8_t* block) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys.data());
  auto* io = reinterpret_cast<__m128i*>(block);
  __m128i s = _mm_xor_si128(_mm_loadu_si128(io), _mm_loadu_si128(rk));
  for (int round = 1; round < 10; ++round)
    s = _mm_aesenc_si128(s, _mm_loadu_si128(rk + round));
  _mm_storeu_si128(io, _mm_aesenclast_si128(s, _mm_loadu_si128(rk + 10)));
}

#endif  // MEDSEN_X86

}  // namespace detail

Aes128::Aes128(std::span<const std::uint8_t, kKeySize> key) {
#if MEDSEN_X86
  if (util::cpu_features().aes_ni) {
    detail::aes128_expand_key_ni(key.data(), round_keys_);
    return;
  }
#endif
  detail::aes128_expand_key_portable(key.data(), round_keys_);
}

Aes128::~Aes128() { util::secure_wipe(round_keys_); }

void Aes128::encrypt_block(std::span<std::uint8_t, kBlockSize> block) const {
#if MEDSEN_X86
  if (util::cpu_features().aes_ni) {
    detail::aes128_encrypt_ni(round_keys_, block.data());
    return;
  }
#endif
  detail::aes128_encrypt_portable(round_keys_, block.data());
}

Aes128Ctr::Aes128Ctr(std::span<const std::uint8_t, Aes128::kKeySize> key,
                     std::uint64_t nonce)
    : cipher_(key), nonce_(nonce) {}

Aes128Ctr::~Aes128Ctr() { util::secure_wipe(buf_); }

void Aes128Ctr::refill() {
  // The counter block is encrypted in place into the keystream buffer:
  // no temporary copy of keystream to wipe.
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[i] = static_cast<std::uint8_t>(nonce_ >> (8 * (7 - i)));
    buf_[8 + i] = static_cast<std::uint8_t>(counter_ >> (8 * (7 - i)));
  }
  cipher_.encrypt_block(std::span<std::uint8_t, Aes128::kBlockSize>(buf_));
  ++counter_;
  pos_ = 0;
}

void Aes128Ctr::apply(std::span<std::uint8_t> data) {
  std::uint8_t* out = data.data();
  std::size_t left = data.size();
  // Finish the block a previous call left partly used...
  for (; left != 0 && pos_ != buf_.size(); --left) *out++ ^= buf_[pos_++];
  // ...then XOR whole keystream blocks, 16 bytes per step...
  for (; left >= buf_.size(); left -= buf_.size(), out += buf_.size()) {
    refill();
    std::uint64_t lanes[2];
    std::uint64_t stream[2];
    std::memcpy(lanes, out, sizeof lanes);
    std::memcpy(stream, buf_.data(), sizeof stream);
    lanes[0] ^= stream[0];
    lanes[1] ^= stream[1];
    std::memcpy(out, lanes, sizeof lanes);
    pos_ = buf_.size();
  }
  // ...and start a new block for the tail.
  if (left == 0) return;
  refill();
  for (; pos_ != left; ++pos_) out[pos_] ^= buf_[pos_];
}

}  // namespace medsen::crypto
