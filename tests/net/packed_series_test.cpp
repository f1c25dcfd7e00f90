// The relay's packed upload (net::pack_series / deserialize_packed_series,
// MSP1 in docs/PROTOCOL.md): bit-exact round trips, the plane split, the
// whole-series MSZ1 form older relays send, and the strict decoder.

#include "net/messages.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "compress/codec.h"
#include "util/serialize.h"

namespace medsen::net {
namespace {

/// Byte offset of channel c's coded-plane mask in an MSP1 container:
/// magic and channel count, then 29-byte channel headers ending in the
/// mask.
std::size_t mask_offset(std::size_t c) { return 8 + 29 * c + 28; }

/// Bit-exact equality (NaN payloads and -0.0 included): the serialized
/// form carries every double as its IEEE-754 bit pattern.
void expect_bit_identical(const util::MultiChannelSeries& a,
                          const util::MultiChannelSeries& b) {
  EXPECT_EQ(serialize_series(a), serialize_series(b));
}

util::MultiChannelSeries one_channel(std::vector<double> samples,
                                     double rate = 450.0) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(rate, std::move(samples), 1.25);
  return series;
}

/// A baseline near 1.0 with deterministic noise in the low mantissa
/// bytes: the top planes are nearly constant, the low planes uniform.
util::MultiChannelSeries noisy_series(std::size_t n) {
  std::vector<double> samples(n);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (auto& x : samples) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = 1.0 + 1e-4 * (static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5);
  }
  return one_channel(std::move(samples));
}

std::vector<double> special_values() {
  const double inf = std::numeric_limits<double>::infinity();
  double payload_nan = 0.0;
  const std::uint64_t nan_bits = 0x7FF8DEADBEEF0001ull;
  std::memcpy(&payload_nan, &nan_bits, sizeof(payload_nan));
  return {std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          payload_nan,
          inf,
          -inf,
          0.0,
          -0.0,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min() / 3.0,
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max(),
          1.0,
          -1.5};
}

TEST(PackedSeries, RoundTripIsBitExactOnSpecialValues) {
  // Once raw (a short series the codec cannot shrink) and once coded
  // (the same values repeated, so every plane has low entropy).
  const auto values = special_values();
  std::vector<double> repeated;
  for (int r = 0; r < 400; ++r)
    repeated.insert(repeated.end(), values.begin(), values.end());
  for (const auto& series : {one_channel(values), one_channel(repeated)}) {
    const auto packed = pack_series(series);
    expect_bit_identical(deserialize_packed_series(packed), series);
  }
  EXPECT_EQ(pack_series(one_channel(values))[mask_offset(0)], 0x00);
  EXPECT_EQ(pack_series(one_channel(repeated))[mask_offset(0)], 0xFF);
}

TEST(PackedSeries, RoundTripIsBitExactAtEveryBlockTail) {
  // The decoder merges planes sixteen samples at a time and the rest one
  // by one: every tail length, around 4,096 and at an odd 9,001, with NaN
  // payloads, infinities and signed zeros spread through the samples.
  const auto values = special_values();
  std::vector<std::size_t> lengths = {4095, 4096, 4097, 9001};
  for (std::size_t n = 0; n <= 33; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    SCOPED_TRACE(n);
    auto series = noisy_series(n);
    for (std::size_t i = 0; i < n; i += 3)
      series.channels[0][i] = values[(i / 3) % values.size()];
    expect_bit_identical(deserialize_packed_series(pack_series(series)),
                         series);
  }
}

TEST(PackedSeries, EmptyAndTinySeriesRoundTrip) {
  util::MultiChannelSeries none;
  const auto packed_none = pack_series(none);
  EXPECT_TRUE(deserialize_packed_series(packed_none).channels.empty());

  util::MultiChannelSeries mixed;
  mixed.carrier_frequencies_hz = {5.0e5, 1.0e6, 2.0e6};
  mixed.channels.emplace_back(450.0, std::vector<double>{}, 0.0);
  mixed.channels.emplace_back(450.0, std::vector<double>{-0.0}, 2.0);
  mixed.channels.emplace_back(900.0, std::vector<double>{}, 3.0);
  for (const auto& series : {mixed, one_channel({}), one_channel({42.0})})
    expect_bit_identical(deserialize_packed_series(pack_series(series)),
                         series);
}

TEST(PackedSeries, NoisyPlanesTravelRawAndTopPlanesCoded) {
  const auto series = noisy_series(4096);
  const auto packed = pack_series(series);
  const std::uint8_t mask = packed[mask_offset(0)];
  // Sign/exponent plane coded, lowest mantissa plane raw.
  EXPECT_NE(mask & 0x80, 0);
  EXPECT_EQ(mask & 0x01, 0);
  EXPECT_LT(packed.size(), serialized_series_size(series));
  expect_bit_identical(deserialize_packed_series(packed), series);
}

TEST(PackedSeries, AllCodedPlanesDecodeBeyondTheirPackedSize) {
  // 100,000 constant samples pack into far fewer bytes than samples:
  // the decoder's allocation bound must come from the decoded planes,
  // not from the bytes left in the container.
  const auto series = one_channel(std::vector<double>(100000, 0.75));
  const auto packed = pack_series(series);
  EXPECT_EQ(packed[mask_offset(0)], 0xFF);
  EXPECT_LT(packed.size(), 100000u);
  expect_bit_identical(deserialize_packed_series(packed), series);
}

TEST(PackedSeries, WholeSeriesMsz1StillDecodes) {
  const auto series = noisy_series(2048);
  const auto whole = compress::compress(serialize_series(series));
  expect_bit_identical(deserialize_packed_series(whole), series);
}

TEST(PackedSeries, SerializedSizeMatchesSerializeSeries) {
  util::MultiChannelSeries mixed = noisy_series(777);
  mixed.carrier_frequencies_hz.push_back(2.0e6);
  mixed.channels.emplace_back(450.0, std::vector<double>{}, 0.0);
  for (const auto& series :
       {util::MultiChannelSeries{}, one_channel({1.0}), mixed})
    EXPECT_EQ(serialized_series_size(series),
              serialize_series(series).size());
}

TEST(PackedSeries, TrailingBytesRejected) {
  const auto coded = pack_series(noisy_series(4096));
  const auto raw = pack_series(one_channel({1.0, 2.0}));
  const auto whole = compress::compress(serialize_series(noisy_series(64)));
  for (auto bytes : {coded, raw, whole}) {
    EXPECT_NO_THROW(deserialize_packed_series(bytes));
    bytes.push_back(0x00);
    EXPECT_THROW(deserialize_packed_series(bytes), std::runtime_error);
  }
}

TEST(PackedSeries, EveryTruncationRejected) {
  // A short header, a short raw plane, a short length field or a short
  // coded block: every proper prefix throws one of the two structured
  // types.
  for (const auto& bytes : {pack_series(noisy_series(300)),
                            pack_series(one_channel({1.0, 2.0, 3.0}))}) {
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      const std::span<const std::uint8_t> prefix(bytes.data(), n);
      try {
        (void)deserialize_packed_series(prefix);
        ADD_FAILURE() << "prefix of " << n << " bytes accepted";
      } catch (const std::out_of_range&) {
      } catch (const std::runtime_error&) {
      }
    }
  }
}

TEST(PackedSeries, CodedBlockSizeMismatchRejected) {
  auto bytes = pack_series(noisy_series(4096));
  const std::uint8_t mask = bytes[mask_offset(0)];
  ASSERT_NE(mask, 0);
  // The MSZ1 original_size sits 4 bytes into the coded block, which
  // follows the raw planes and the block's u32 length.
  const std::size_t raw_planes =
      static_cast<std::size_t>(8 - std::popcount(mask)) * 4096;
  const std::size_t size_field = mask_offset(0) + 1 + raw_planes + 4 + 4;
  bytes[size_field] ^= 0x01;
  EXPECT_THROW(deserialize_packed_series(bytes), std::runtime_error);
}

TEST(PackedSeries, HostileSampleCountRejectedBeforeAllocation) {
  // All eight planes coded, 2^32-1 samples, and a genuine but tiny coded
  // block: the declared size does not match the block, so the decoder
  // throws before any sample is allocated.
  util::ByteWriter w;
  w.u32(0x4D535031);
  w.u32(1);
  w.f64(5.0e5);
  w.f64(450.0);
  w.f64(0.0);
  w.u32(0xFFFFFFFF);
  w.u8(0xFF);
  w.blob(compress::compress(std::vector<std::uint8_t>(64, 0)));
  EXPECT_THROW(deserialize_packed_series(w.data()), std::runtime_error);
}

TEST(PackedSeries, CodedBlockWithoutCodedPlanesRejected) {
  util::ByteWriter w;
  w.u32(0x4D535031);
  w.u32(1);
  w.f64(5.0e5);
  w.f64(450.0);
  w.f64(0.0);
  w.u32(1);
  w.u8(0x00);
  w.bytes(std::vector<std::uint8_t>(8, 0x11));
  w.blob(compress::compress(std::vector<std::uint8_t>{}));
  EXPECT_THROW(deserialize_packed_series(w.data()), std::runtime_error);
}

TEST(PackedSeries, UnknownMagicRejected) {
  auto bytes = pack_series(one_channel({1.0}));
  bytes[0] ^= 0x40;
  EXPECT_THROW(deserialize_packed_series(bytes), std::runtime_error);
  // A raw serialize_series body is not a packed series either.
  EXPECT_THROW(deserialize_packed_series(serialize_series(noisy_series(8))),
               std::runtime_error);
}

TEST(PackedSeries, NonPositiveSampleRateRejectedAsMalformed) {
  // util::TimeSeries refuses such a rate with std::invalid_argument; both
  // series decoders report it as malformed input instead.
  for (const double rate : {0.0, -450.0}) {
    util::ByteWriter w;
    w.u32(1);
    w.f64(5.0e5);
    w.f64(rate);
    w.f64(0.0);
    w.u32(0);
    EXPECT_THROW(deserialize_series(w.data()), std::runtime_error);

    util::ByteWriter p;
    p.u32(0x4D535031);
    p.u32(1);
    p.f64(5.0e5);
    p.f64(rate);
    p.f64(0.0);
    p.u32(0);
    p.u8(0x00);
    p.u32(0);
    EXPECT_THROW(deserialize_packed_series(p.data()), std::runtime_error);
  }
}

TEST(PackedSeries, NonFiniteChannelHeaderRejectedAsMalformed) {
  // A NaN or infinite carrier, rate or start time would reach every peak
  // time the analysis reports; both decoders refuse it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t field = 0; field < 3; ++field)
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      std::array<double, 3> timing = {5.0e5, 450.0, 0.0};
      timing[field] = bad;
      util::ByteWriter w;
      w.u32(1);
      for (const double x : timing) w.f64(x);
      w.u32(0);
      EXPECT_THROW(deserialize_series(w.data()), std::runtime_error)
          << field << " " << bad;

      util::ByteWriter p;
      p.u32(0x4D535031);
      p.u32(1);
      for (const double x : timing) p.f64(x);
      p.u32(0);
      p.u8(0x00);
      p.u32(0);
      EXPECT_THROW(deserialize_packed_series(p.data()), std::runtime_error)
          << field << " " << bad;
    }
}

}  // namespace
}  // namespace medsen::net
