// Byte-identity pin for the relay's packed upload: net::pack_series must
// emit exactly these MSP1 bytes (docs/PROTOCOL.md) for every series below.
// The plane split, the per-plane entropy test that picks the coded planes
// and the codec all feed the digest, so a faster packer must reproduce it
// unchanged. The series are built without libm (Irwin-Hall noise, a
// polynomial drift), so the bytes are the same on every platform.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "net/messages.h"

namespace medsen::net {
namespace {

/// Bit patterns the plane split must carry unchanged: NaNs (payload and
/// sign included), infinities, signed zero and denormals.
std::vector<double> special_values() {
  std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0};
  for (const std::uint64_t bits :
       {0x7FF8DEADBEEF0001ull, 0xFFF0000000000001ull, 0x000FFFFFFFFFFFFFull}) {
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof(x));
    values.push_back(x);
  }
  return values;
}

/// One channel shaped like a clinical acquisition: a baseline that drifts
/// across 1.0 (so the exponent plane changes too), a slow random walk,
/// sensor noise of ~5e-5 and an occasional cell-sized dip. With
/// `specials`, every seventh sample is one of special_values().
std::vector<double> clinical_channel(std::size_t n, std::uint64_t seed,
                                     bool specials) {
  crypto::ChaChaRng rng(seed);
  const auto odd = special_values();
  std::vector<double> v(n);
  double walk = 0.0;
  std::size_t dip_left = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n > 1 ? static_cast<double>(i) / static_cast<double>(n)
                           : 0.0;
    double noise = -2.0;
    for (int k = 0; k < 4; ++k) noise += rng.uniform_double();
    walk += 2.0e-6 * (rng.uniform_double() - 0.5);
    if (dip_left == 0 && rng.uniform(400) == 0) dip_left = 6;
    const double dip = dip_left > 0 ? 1.5e-3 : 0.0;
    if (dip_left > 0) --dip_left;
    v[i] = 0.993 + 0.012 * t * (1.0 - 0.5 * t) + walk + 1.0e-4 * noise - dip;
    if (specials && i % 7 == 3) v[i] = odd[(i / 7) % odd.size()];
  }
  return v;
}

util::MultiChannelSeries clinical_series(std::size_t channels, std::size_t n,
                                         std::uint64_t seed, bool specials) {
  util::MultiChannelSeries series;
  for (std::size_t c = 0; c < channels; ++c) {
    series.carrier_frequencies_hz.push_back(5.0e5 * static_cast<double>(c + 1));
    series.channels.emplace_back(450.0,
                                 clinical_channel(n, seed * 16 + c, specials),
                                 0.25 * static_cast<double>(c));
  }
  return series;
}

/// One channel whose lowest plane holds byte value v copies[v] times;
/// the other seven planes are constant.
util::MultiChannelSeries plane_with_counts(
    const std::vector<std::size_t>& copies) {
  std::vector<double> samples;
  for (std::size_t v = 0; v < copies.size(); ++v)
    for (std::size_t r = 0; r < copies[v]; ++r) {
      const std::uint64_t bits = 0x3FF0000000000000ull | v;
      double x = 0.0;
      std::memcpy(&x, &bits, sizeof(x));
      samples.push_back(x);
    }
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::move(samples), 0.0);
  return series;
}

void hash_u64(crypto::Sha256& h, std::uint64_t v) {
  std::array<std::uint8_t, 8> le{};
  for (std::size_t i = 0; i < le.size(); ++i)
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(le);
}

void hash_packed(crypto::Sha256& h, const util::MultiChannelSeries& series) {
  const auto packed = pack_series(series);
  ASSERT_EQ(serialize_series(deserialize_packed_series(packed)),
            serialize_series(series));
  hash_u64(h, packed.size());
  h.update(packed);
}

TEST(PackedSeriesGolden, PackOutputIsByteIdentical) {
  std::vector<std::size_t> lengths = {4095, 4096, 4097, 9000, 9001};
  for (std::size_t n = 0; n <= 33; ++n) lengths.push_back(n);
  crypto::Sha256 h;
  for (const std::size_t channels : {1u, 2u, 8u})
    for (const std::size_t n : lengths)
      for (const bool specials : {false, true}) {
        SCOPED_TRACE(testing::Message() << channels << " x " << n
                                        << (specials ? " specials" : ""));
        hash_packed(h, clinical_series(channels, n, 1000 * channels + n,
                                       specials));
      }
  EXPECT_EQ(crypto::to_hex(h.finish()),
            "d252974c98ff7863ea6e90d3ebcd3f9c4992083d528f8789fc38dcd7a9949970");
}

TEST(PackedSeriesGolden, EntropyThresholdIsExclusive) {
  // 128 values twice each: exactly 7.0 bits per byte, so the plane
  // travels raw. Merge two of the values and it drops to 6.98 bits and
  // goes to the codec. The constant planes are coded either way.
  const auto at_limit = plane_with_counts(std::vector<std::size_t>(128, 2));
  std::vector<std::size_t> below(127, 2);
  below[0] = 4;
  const auto under = plane_with_counts(below);
  constexpr std::size_t kMaskOffset = 8 + 28;
  EXPECT_EQ(pack_series(at_limit)[kMaskOffset], 0xFE);
  EXPECT_EQ(pack_series(under)[kMaskOffset], 0xFF);

  crypto::Sha256 h;
  hash_packed(h, at_limit);
  hash_packed(h, under);
  EXPECT_EQ(crypto::to_hex(h.finish()),
            "c3fcd492407989a21758d915e24a005575ef89ff34de74d8bd070a8c606bce55");
}

}  // namespace
}  // namespace medsen::net
