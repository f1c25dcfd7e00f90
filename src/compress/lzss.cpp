#include "compress/lzss.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace medsen::compress {

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

struct Match {
  std::size_t length = 0;
  std::size_t distance = 0;
};

/// Length of the common prefix of `a` and `b`, at most `limit`, compared
/// eight bytes at a time.
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t limit) {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a + n, sizeof x);
    std::memcpy(&y, b + n, sizeof y);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return n + static_cast<std::size_t>(bit) / 8;
    }
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Hash chains over the window. head[h] is the latest position with hash
/// h, prev[p % W] the one before p with p's hash, and prev2[p % W] the one
/// before that, so a walk gets two links from one lookup. A slot p % W is
/// rewritten only when p + W is inserted, and a search at q stops at any
/// p with q - p > W, so every link a walk follows is the one stored when
/// its position was inserted. Links are read only at positions taken
/// from head or from a stored link, all inserted already, so prev and
/// prev2 start unfilled: filling them would write 256 KiB per call.
struct HashChains {
  std::vector<std::int32_t> head = std::vector<std::int32_t>(kHashSize, -1);
  std::unique_ptr<std::int32_t[]> prev =
      std::make_unique_for_overwrite<std::int32_t[]>(kWindowSize);
  std::unique_ptr<std::int32_t[]> prev2 =
      std::make_unique_for_overwrite<std::int32_t[]>(kWindowSize);

  void insert(const std::uint8_t* p, std::size_t pos) {
    const std::uint32_t h = hash3(p);
    const std::int32_t older = head[h];
    const std::int32_t oldest =
        older < 0 ? -1 : prev[static_cast<std::size_t>(older) % kWindowSize];
    prev[pos % kWindowSize] = older;
    prev2[pos % kWindowSize] = oldest;
    head[h] = static_cast<std::int32_t>(pos);
  }
};

Match find_match(std::span<const std::uint8_t> data, std::size_t pos,
                 const HashChains& chains, unsigned max_chain) {
  Match best;
  if (pos + kMinMatch > data.size()) return best;
  const std::size_t limit = std::min(kMaxMatch, data.size() - pos);
  const std::uint8_t* cur = data.data() + pos;
  // Returns true when no later candidate can do better.
  auto visit = [&](std::size_t cand_pos) {
    // A candidate wins only if it matches more than `need` bytes, so one
    // compare at index `need` (< limit while best < limit) rejects most.
    const std::size_t need = std::max(best.length, kMinMatch - 1);
    const std::uint8_t* cand = data.data() + cand_pos;
    if (cand[need] != cur[need]) return false;
    const std::size_t len = common_prefix(cand, cur, limit);
    if (len <= need) return false;
    best.length = len;
    best.distance = pos - cand_pos;
    return len == limit;
  };
  // Candidates in chain order, at most max_chain of them, two per lookup:
  // the walk waits on one dependent load per pair instead of per link.
  std::int32_t candidate = chains.head[hash3(cur)];
  unsigned chain = 0;
  while (candidate >= 0 && chain < max_chain) {
    const auto first = static_cast<std::size_t>(candidate);
    if (pos - first > kWindowSize) break;
    const std::int32_t second = chains.prev[first % kWindowSize];
    const std::int32_t third = chains.prev2[first % kWindowSize];
    if (visit(first) || ++chain == max_chain || second < 0) break;
    const auto second_pos = static_cast<std::size_t>(second);
    if (pos - second_pos > kWindowSize || visit(second_pos)) break;
    ++chain;
    candidate = third;
  }
  return best;
}

}  // namespace

std::vector<Token> lzss_compress(std::span<const std::uint8_t> data,
                                 const LzssConfig& config) {
  std::vector<Token> tokens;
  if (data.empty()) return tokens;
  tokens.reserve(data.size() / 3);

  HashChains chains;
  auto insert = [&](std::size_t pos) {
    if (pos + kMinMatch <= data.size()) chains.insert(data.data() + pos, pos);
  };

  std::size_t pos = 0;
  // A lazy step that emits a literal has already searched pos + 1, and
  // nothing is inserted before the next search there, so that search
  // would return the same match: carry it over instead.
  Match next;
  bool have_next = false;
  while (pos < data.size()) {
    const Match match =
        have_next ? next : find_match(data, pos, chains, config.max_chain);
    have_next = false;
    if (config.lazy && match.length >= kMinMatch &&
        match.length < kMaxMatch && pos + 1 < data.size()) {
      // Peek one position ahead; emit a literal now if the next match is
      // strictly better (deflate's lazy matching).
      insert(pos);
      next = find_match(data, pos + 1, chains, config.max_chain);
      if (next.length > match.length + 1) {
        Token t;
        t.is_match = false;
        t.literal = data[pos];
        tokens.push_back(t);
        ++pos;
        have_next = true;
        continue;  // chains already updated for pos
      }
      // Keep the current match; fall through (pos already inserted).
      for (std::size_t i = 1; i < match.length; ++i) insert(pos + i);
      Token t;
      t.is_match = true;
      t.length = static_cast<std::uint16_t>(match.length);
      t.distance = static_cast<std::uint16_t>(match.distance);
      tokens.push_back(t);
      pos += match.length;
      continue;
    }

    if (match.length >= kMinMatch) {
      for (std::size_t i = 0; i < match.length; ++i) insert(pos + i);
      Token t;
      t.is_match = true;
      t.length = static_cast<std::uint16_t>(match.length);
      t.distance = static_cast<std::uint16_t>(match.distance);
      tokens.push_back(t);
      pos += match.length;
    } else {
      insert(pos);
      Token t;
      t.is_match = false;
      t.literal = data[pos];
      tokens.push_back(t);
      ++pos;
    }
  }
  return tokens;
}

std::vector<std::uint8_t> lzss_decompress(std::span<const Token> tokens) {
  std::vector<std::uint8_t> out;
  for (const Token& t : tokens) {
    if (!t.is_match) {
      out.push_back(t.literal);
      continue;
    }
    if (t.distance == 0 || t.distance > out.size())
      throw std::runtime_error("lzss_decompress: invalid distance");
    if (t.length < kMinMatch || t.length > kMaxMatch)
      throw std::runtime_error("lzss_decompress: invalid length");
    const std::size_t start = out.size() - t.distance;
    for (std::size_t i = 0; i < t.length; ++i)
      out.push_back(out[start + i]);  // overlapping copies are intentional
  }
  return out;
}

}  // namespace medsen::compress
