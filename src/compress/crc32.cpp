#include "compress/crc32.h"

#include <array>

namespace medsen::compress {

namespace {

// Slicing-by-8 tables. kTables[0] is the classic byte-at-a-time table for
// the reflected polynomial; kTables[k][b] is the CRC of byte b followed by
// k zero bytes, so eight lookups advance the state by eight input bytes.
constexpr auto kTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
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

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state,
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

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace medsen::compress
