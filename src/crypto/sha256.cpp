#include "crypto/sha256.h"

#include <cstring>

#include "crypto/cpu_features.h"

#if MEDSEN_CRYPTO_X86
#include <immintrin.h>
#endif

namespace medsen::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

namespace detail {

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g; g = f; f = e; e = d + temp1;
      d = c; c = b; b = a; a = temp1 + temp2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if MEDSEN_CRYPTO_X86

#define MEDSEN_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

namespace {

/// Four rounds. The SHA extensions hold the state as ABEF and CDGH, and
/// each SHA256RNDS2 runs two rounds and swaps the halves' roles.
MEDSEN_SHA_NI inline void quad_rounds(__m128i& abef, __m128i& cdgh,
                                      __m128i words, std::size_t quad) {
  __m128i wk = _mm_add_epi32(
      words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * quad)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// W[t..t+3] from W[t-16..t-1], given as four quads oldest first:
/// W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
MEDSEN_SHA_NI inline __m128i next_quad(__m128i w16, __m128i w12, __m128i w8,
                                       __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

}  // namespace

MEDSEN_SHA_NI void sha256_blocks_shani(Sha256State& state,
                                       const std::uint8_t* blocks,
                                       std::size_t count) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // Register names list the state words from the high lane down.
  auto* words = reinterpret_cast<__m128i*>(state.data());
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    quad_rounds(abef, cdgh, m0, 0);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    quad_rounds(abef, cdgh, m1, 1);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    quad_rounds(abef, cdgh, m2, 2);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    quad_rounds(abef, cdgh, m3, 3);
    for (std::size_t quad = 4; quad < 16; quad += 4) {
      m0 = next_quad(m0, m1, m2, m3);
      quad_rounds(abef, cdgh, m0, quad);
      m1 = next_quad(m1, m2, m3, m0);
      quad_rounds(abef, cdgh, m1, quad + 1);
      m2 = next_quad(m2, m3, m0, m1);
      quad_rounds(abef, cdgh, m2, quad + 2);
      m3 = next_quad(m3, m0, m1, m2);
      quad_rounds(abef, cdgh, m3, quad + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

#endif  // MEDSEN_CRYPTO_X86

}  // namespace detail

void Sha256::compress(const std::uint8_t* blocks, std::size_t count) {
#if MEDSEN_CRYPTO_X86
  if (detail::cpu_features().sha_ni) {
    detail::sha256_blocks_shani(state_, blocks, count);
    return;
  }
#endif
  detail::sha256_blocks_portable(state_, blocks, count);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  compress(buffer_.data(), 1);
  buffer_len_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    digest[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    digest[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    digest[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return digest;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

// Overload delegation to the span variant, not self-recursion — the
// analyzer's tokenizer frontend cannot distinguish overloads.
// medsen: allow(tcb-recursion)
Sha256Digest sha256(const std::string& data) {
  return sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

std::string to_hex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(2 * digest.size(), '\0');
  for (std::size_t i = 0; i < digest.size(); ++i) {
    out[2 * i] = kHex[digest[i] >> 4];
    out[2 * i + 1] = kHex[digest[i] & 0xF];
  }
  return out;
}

}  // namespace medsen::crypto
