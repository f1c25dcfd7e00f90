#include "compress/crc32.h"

#include <array>

#if MEDSEN_X86
#include <immintrin.h>
#endif

namespace medsen::compress {

namespace {

/// The reflected IEEE polynomial: bit i stands for x^(31 - i).
constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8 tables. kTables[0] is the classic byte-at-a-time table for
// the reflected polynomial; kTables[k][b] is the CRC of byte b followed by
// k zero bytes, so eight lookups advance the state by eight input bytes.
constexpr auto kTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
  return t;
}();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

namespace detail {

std::uint32_t crc32_update_portable(std::uint32_t state,
                                    std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n)
    state = kTables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  return state;
}

#if MEDSEN_X86

#define MEDSEN_CLMUL __attribute__((target("pclmul")))

namespace {

/// x^n mod P, reflected and shifted up one bit (a carry-less product of
/// two reflected operands comes out one bit low). Moving a lane d bits
/// along the message multiplies its earlier eight bytes by the d + 32
/// constant and its later eight by the d - 32 one (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009).
constexpr std::uint64_t fold_constant(unsigned n) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (unsigned i = 0; i < n; ++i) r = (r & 1) ? kPoly ^ (r >> 1) : r >> 1;
  return static_cast<std::uint64_t>(r) << 1;
}

constexpr std::size_t kStep = 64;  ///< bytes per four-lane fold
/// Multipliers for a 512-bit move (four lanes) and a 128-bit one (one
/// lane): the earlier half's in the low 64 bits, the later half's above.
constexpr std::uint64_t kBy64Early = fold_constant(8 * kStep + 32);
constexpr std::uint64_t kBy64Late = fold_constant(8 * kStep - 32);
constexpr std::uint64_t kBy16Early = fold_constant(128 + 32);
constexpr std::uint64_t kBy16Late = fold_constant(128 - 32);

/// Multiplies lane `acc`'s low half (the earlier eight bytes) by k's low
/// half and its high half by k's high half, and adds `data`: the lane,
/// moved forward by the distance k encodes, absorbs the next 16 bytes.
MEDSEN_CLMUL inline __m128i fold(__m128i acc, __m128i k, __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       data);
}

MEDSEN_CLMUL inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

MEDSEN_CLMUL std::uint32_t crc32_update_clmul(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  if (data.size() < kStep) return crc32_update_portable(state, data);
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Four lanes, 16 bytes each, 64 bytes apart. The state is XORed into
  // the first four message bytes, as the table kernel does.
  __m128i lane0 = _mm_xor_si128(load128(p),
                                _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i lane1 = load128(p + 16);
  __m128i lane2 = load128(p + 32);
  __m128i lane3 = load128(p + 48);
  p += kStep;
  n -= kStep;
  const __m128i by64 = _mm_set_epi64x(static_cast<long long>(kBy64Late),
                                      static_cast<long long>(kBy64Early));
  for (; n >= kStep; p += kStep, n -= kStep) {
    lane0 = fold(lane0, by64, load128(p));
    lane1 = fold(lane1, by64, load128(p + 16));
    lane2 = fold(lane2, by64, load128(p + 32));
    lane3 = fold(lane3, by64, load128(p + 48));
  }
  // Fold the four lanes into one, then any whole 16-byte blocks left.
  const __m128i by16 = _mm_set_epi64x(static_cast<long long>(kBy16Late),
                                      static_cast<long long>(kBy16Early));
  __m128i acc = fold(lane0, by16, lane1);
  acc = fold(acc, by16, lane2);
  acc = fold(acc, by16, lane3);
  for (; n >= 16; p += 16, n -= 16) acc = fold(acc, by16, load128(p));
  // The lane now holds 16 message bytes with the same CRC from a zero
  // state as everything folded into it; the table kernel reduces them
  // and takes the last 0-15 bytes.
  std::array<std::uint8_t, 16> folded{};
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded.data()), acc);
  return crc32_update_portable(crc32_update_portable(0, folded), {p, n});
}

#endif  // MEDSEN_X86

}  // namespace detail

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) {
#if MEDSEN_X86
  if (util::cpu_features().pclmul)
    return detail::crc32_update_clmul(state, data);
#endif
  return detail::crc32_update_portable(state, data);
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace medsen::compress
