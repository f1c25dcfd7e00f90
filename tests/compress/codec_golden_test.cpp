// Byte-identity pins for the codec. compress() must emit exactly these
// bytes for every input and LzssConfig, and decompress() must accept and
// reject exactly these containers: the phone relay, the cloud's upload
// decode and every stored fuzz seed depend on it. The digests were
// recorded on the bit-serial reference implementation; a faster kernel
// must reproduce them unchanged.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "net/messages.h"
#include "util/time_series.h"

namespace medsen::compress {
namespace {

using Bytes = std::vector<std::uint8_t>;

// A two-channel f64 series shaped like the relay's upload: noise near 1.0
// with a slow drift, serialized exactly as the relay does. Irwin-Hall
// noise (a sum of uniforms) keeps libm out of the corpus, so the bytes are
// the same on every platform.
Bytes upload_like_series(std::size_t samples, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  util::MultiChannelSeries series;
  for (const double carrier : {5.0e5, 2.0e6}) {
    std::vector<double> v(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      double noise = -2.0;
      for (int k = 0; k < 4; ++k) noise += rng.uniform_double();
      const double drift =
          3.0e-4 * static_cast<double>(i) / static_cast<double>(samples);
      v[i] = 1.0 + drift + 2.0e-4 * noise;
    }
    series.carrier_frequencies_hz.push_back(carrier);
    series.channels.emplace_back(450.0, std::move(v), 0.0);
  }
  return net::serialize_series(series);
}

Bytes csv_text(int rows, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  std::string csv = "time,ch500000,ch2000000\n";
  for (int i = 0; i < rows; ++i) {
    csv += std::to_string(i) + "." + std::to_string(rng.uniform(1000));
    csv += ",0.99" + std::to_string(rng.uniform(1000));
    csv += ",1.00" + std::to_string(rng.uniform(100)) + "\n";
  }
  return {csv.begin(), csv.end()};
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  Bytes out(n);
  rng.fill(out);
  return out;
}

Bytes small_alphabet(std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  static constexpr char kAcgt[] = "ACGT";
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(kAcgt[rng.uniform(4)]);
  return out;
}

// Runs of random length (1..600) of random bytes: long overlapping
// back-references and the kMaxMatch cap.
Bytes long_runs(std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  Bytes out;
  while (out.size() < n) {
    const auto b = static_cast<std::uint8_t>(rng.next_u32());
    out.insert(out.end(), 1 + rng.uniform(600), b);
  }
  out.resize(n);
  return out;
}

// A random block repeated with sparse edits: every match sits `block`
// bytes back, so a block over 32 KiB can only match inside itself.
Bytes repeated_block(std::size_t block, std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  Bytes base(block);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.uniform(64));
  Bytes out;
  while (out.size() < n) {
    Bytes copy = base;
    for (int e = 0; e < 40; ++e)
      copy[rng.uniform(static_cast<std::uint32_t>(block))] ^= 0x5A;
    out.insert(out.end(), copy.begin(), copy.end());
  }
  out.resize(n);
  return out;
}

std::vector<Bytes> corpus() {
  std::vector<Bytes> c;
  c.push_back(upload_like_series(1500, 1));  // ~24 KB
  c.push_back(upload_like_series(2500, 2));  // ~40 KB
  c.push_back(csv_text(600, 3));
  c.push_back(random_bytes(5000, 4));
  c.push_back(small_alphabet(8000, 5));
  c.push_back(long_runs(12000, 6));
  c.push_back(Bytes(4000, 'z'));
  Bytes all_values;
  for (int rep = 0; rep < 3; ++rep)
    for (int b = 0; b < 256; ++b)
      all_values.push_back(static_cast<std::uint8_t>(b));
  c.push_back(all_values);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 257u, 258u, 259u}) {
    c.emplace_back(n, 'a');
    c.push_back(small_alphabet(n, 100 + n));
  }
  c.push_back(repeated_block(20000, 40000, 7));  // matches 20 KB back
  c.push_back(repeated_block(35000, 70000, 8));  // repeats past the window
  c.push_back(small_alphabet(70000, 9));         // chains wrap the window
  return c;
}

std::vector<LzssConfig> configs() {
  std::vector<LzssConfig> out;
  for (const unsigned chain : {1u, 8u, 64u, 4096u})
    for (const bool lazy : {true, false}) out.push_back({chain, lazy});
  return out;
}

void hash_u64(crypto::Sha256& h, std::uint64_t v) {
  std::array<std::uint8_t, 8> le{};
  for (std::size_t i = 0; i < le.size(); ++i)
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(le);
}

TEST(CodecGolden, CompressOutputIsByteIdentical) {
  const auto inputs = corpus();
  crypto::Sha256 h;
  for (const LzssConfig& config : configs()) {
    for (const Bytes& input : inputs) {
      const Bytes packed = compress(input, config);
      ASSERT_EQ(decompress(packed), input)
          << "chain " << config.max_chain << " lazy " << config.lazy
          << " size " << input.size();
      hash_u64(h, packed.size());
      h.update(packed);
    }
  }
  EXPECT_EQ(crypto::to_hex(h.finish()),
            "c1110342b96742381aa6d843b1bf1f3c565b9ef001815a9db76ce56b394d700d");
}

// Seeded mutations of small containers. Each outcome is hashed as 0x00
// for a rejection (std::runtime_error; any other exception fails the
// test) or 0x01 followed by the decoded bytes.
TEST(CodecGolden, DecoderVerdictsAreIdentical) {
  std::vector<Bytes> bases;
  const std::string text = "hello world hello world, the codec hello world";
  bases.push_back(compress(Bytes(text.begin(), text.end())));
  bases.push_back(compress(small_alphabet(200, 11)));
  bases.push_back(compress(upload_like_series(12, 12)));
  bases.push_back(compress(random_bytes(64, 13)));
  Bytes run(300, 'r');
  run.push_back('!');
  bases.push_back(compress(run, {8, false}));
  bases.push_back(compress(Bytes{'x', 'y', 'z'}));
  bases.push_back(compress({}));

  constexpr std::size_t kHeaderBytes = 16;
  constexpr std::size_t kTableBytes = (286 + 30) * 4 / 8;
  constexpr int kMutations = 24000;
  crypto::ChaChaRng rng(2016);
  crypto::Sha256 h;
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    Bytes m = bases[static_cast<std::size_t>(i) % bases.size()];
    const auto size = static_cast<std::uint32_t>(m.size());
    switch (i % 5) {
      case 0: {  // bit flips anywhere in the container
        const unsigned flips = 1 + rng.uniform(3);
        for (unsigned f = 0; f < flips; ++f) {
          const std::uint32_t bit = rng.uniform(size * 8);
          m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 1: {  // bit flips in the token stream after the tables
        const std::uint32_t first = (kHeaderBytes + kTableBytes) * 8;
        const std::uint32_t bit = first + rng.uniform(size * 8 - first);
        m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        break;
      }
      case 2:  // truncation
        m.resize(rng.uniform(size));
        break;
      case 3: {  // random bytes in the code-length tables
        const unsigned writes = 1 + rng.uniform(8);
        for (unsigned w = 0; w < writes; ++w)
          m[kHeaderBytes + rng.uniform(kTableBytes)] =
              static_cast<std::uint8_t>(rng.next_u32());
        break;
      }
      default: {  // appended bytes
        const unsigned extra = 1 + rng.uniform(3);
        for (unsigned e = 0; e < extra; ++e)
          m.push_back(static_cast<std::uint8_t>(rng.next_u32()));
        break;
      }
    }
    Bytes outcome;
    try {
      outcome = decompress(m);
    } catch (const std::runtime_error&) {
      h.update(std::array<std::uint8_t, 1>{0x00});
      continue;
    }
    ++accepted;
    h.update(std::array<std::uint8_t, 1>{0x01});
    h.update(outcome);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(crypto::to_hex(h.finish()),
            "4188b892d212e9d765a92afe9d9cc019214c4646dea1fa68f13c4fcea429eae1");
}

}  // namespace
}  // namespace medsen::compress
