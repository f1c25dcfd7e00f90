#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <queue>
#include <stdexcept>

namespace medsen::compress {

namespace {

struct Node {
  std::uint64_t freq;
  int left = -1;    // node index or -1
  int right = -1;
  int symbol = -1;  // leaf symbol or -1
};

/// Depth-first traversal assigning depths as code lengths.
void assign_depths(const std::vector<Node>& nodes, int idx, unsigned depth,
                   std::vector<std::uint8_t>& lengths) {
  const Node& n = nodes[static_cast<std::size_t>(idx)];
  if (n.symbol >= 0) {
    lengths[static_cast<std::size_t>(n.symbol)] =
        static_cast<std::uint8_t>(std::max(depth, 1u));
    return;
  }
  assign_depths(nodes, n.left, depth + 1, lengths);
  assign_depths(nodes, n.right, depth + 1, lengths);
}

std::uint32_t reverse_bits(std::uint32_t code, unsigned len) {
  std::uint32_t rev = 0;
  for (unsigned i = 0; i < len; ++i, code >>= 1)
    rev = (rev << 1) | (code & 1);
  return rev;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  std::vector<std::uint8_t> lengths(f.size(), 0);

  for (;;) {
    std::vector<Node> nodes;
    using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    for (std::size_t s = 0; s < f.size(); ++s) {
      if (f[s] == 0) continue;
      nodes.push_back({f[s], -1, -1, static_cast<int>(s)});
      heap.emplace(f[s], static_cast<int>(nodes.size()) - 1);
    }
    if (nodes.empty()) return lengths;
    if (nodes.size() == 1) {
      lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      const auto [fa, a] = heap.top();
      heap.pop();
      const auto [fb, b] = heap.top();
      heap.pop();
      nodes.push_back({fa + fb, a, b, -1});
      heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
    }
    std::fill(lengths.begin(), lengths.end(), 0);
    assign_depths(nodes, heap.top().second, 0, lengths);

    const unsigned max_len =
        *std::max_element(lengths.begin(), lengths.end());
    if (max_len <= kMaxCodeLength) return lengths;
    // Flatten the distribution and retry; halving frequencies (keeping
    // them >= 1) shortens the deepest paths.
    for (auto& v : f)
      if (v > 0) v = (v + 1) / 2;
  }
}

HuffmanCode build_codes(std::span<const std::uint8_t> lengths) {
  HuffmanCode out;
  out.lengths.assign(lengths.begin(), lengths.end());
  out.codes.assign(lengths.size(), 0);

  std::vector<std::uint32_t> length_count(kMaxCodeLength + 1, 0);
  for (auto len : lengths)
    if (len > 0) ++length_count[len];

  std::vector<std::uint32_t> next_code(kMaxCodeLength + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + length_count[len - 1]) << 1;
    next_code[len] = code;
  }
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned len = lengths[s];
    if (len == 0) continue;
    // Bit-reverse for LSB-first emission.
    out.codes[s] =
        static_cast<std::uint16_t>(reverse_bits(next_code[len]++, len));
  }
  return out;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  std::array<std::uint32_t, kMaxCodeLength + 1> length_count{};
  for (auto len : lengths) {
    if (len > kMaxCodeLength)
      throw std::invalid_argument("HuffmanDecoder: length too long");
    if (len > 0) {
      ++length_count[len];
      max_len_ = std::max<unsigned>(max_len_, len);
    }
  }
  if (max_len_ > kRootBits) sub_mask_ = (1u << (max_len_ - kRootBits)) - 1;

  // Canonical codes: each length starts where the previous one ended,
  // doubled; symbols of one length take consecutive codes in symbol order.
  std::array<std::uint32_t, kMaxCodeLength + 1> next_code{};
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + length_count[len - 1]) << 1;
    next_code[len] = code;
  }
  // A code's prefixes are never codes of shorter lengths (each length's
  // first code lies past every prefix of the shorter lengths' codes), so
  // filling the tables in any order gives the bit-at-a-time answer.
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned len = lengths[s];
    if (len == 0) continue;
    const std::uint32_t c = next_code[len]++;
    if ((c >> len) != 0) continue;  // needs more than `len` bits: unreachable
    const std::uint32_t rev = reverse_bits(c, len);  // first code bit = bit 0
    const Entry symbol{static_cast<std::uint16_t>(s),
                       static_cast<std::uint8_t>(len), Kind::kSymbol};
    if (len <= kRootBits) {
      for (std::uint32_t i = rev; i < root_.size(); i += 1u << len)
        root_[i] = symbol;
      continue;
    }
    Entry& link = root_[rev & kRootMask];
    if (link.kind != Kind::kSubTable) {
      link = {static_cast<std::uint16_t>(sub_.size()), 0, Kind::kSubTable};
      sub_.resize(sub_.size() + sub_mask_ + 1);
    }
    for (std::uint32_t i = rev >> kRootBits; i <= sub_mask_;
         i += 1u << (len - kRootBits))
      sub_[link.value + i] = symbol;
  }
}

void HuffmanDecoder::reject(BitReader& in) const {
  // Reading the code bit by bit would take max_len_ bits before giving
  // up; if the stream ends first, the stream is what is wrong.
  in.consume(max_len_);
  throw std::runtime_error("HuffmanDecoder: invalid code");
}

}  // namespace medsen::compress
