// Bit-identity pins for detrend and the cloud analysis built on it.
// detrend_into must produce exactly these output bits for every length,
// window, overlap, thread count and aliasing mode below, and
// AnalysisService::analyze_gated exactly these report bytes and quality
// scores: peak reports, stored results and the gate's verdicts depend on
// them. The digests were recorded on the accumulate-then-divide reference
// implementation; a faster kernel must reproduce them unchanged. Inputs
// come from a seeded ChaCha stream through + - * / only (Irwin-Hall
// noise, polynomial drift, Lorentzian dips), so they carry no libm
// rounding.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cloud/analysis_service.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "dsp/detrend.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

namespace medsen::dsp {
namespace {

void hash_u64(crypto::Sha256& h, std::uint64_t v) {
  std::array<std::uint8_t, 8> le{};
  for (std::size_t i = 0; i < le.size(); ++i)
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(le);
}

void hash_f64(crypto::Sha256& h, double v) {
  hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// Sum of four uniforms, centred: roughly normal with sigma ~0.577.
double irwin_hall(crypto::ChaChaRng& rng) {
  double noise = -2.0;
  for (int k = 0; k < 4; ++k) noise += rng.uniform_double();
  return noise;
}

/// A Lorentzian dip of relative `depth` and half-width `width` samples.
double dip(double x, double center, double depth, double width) {
  const double z = (x - center) / width;
  return 1.0 - depth / (1.0 + z * z);
}

enum class Kind { kDrift, kSignedZeroDenormal, kNonFinite, kNearZero, kHuge };

/// One n-sample input of the given kind; `seed` varies the noise.
std::vector<double> signal(Kind kind, std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  std::vector<double> xs(n);
  const double len = static_cast<double>(n > 0 ? n : 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    const double u = x / len;
    double v = 2.0 + 0.02 * u - 0.015 * u * u + 0.004 * u * u * u;
    v *= dip(x, 0.37 * len, 0.01, 3.0) * dip(x, 0.81 * len, 0.006, 2.0);
    v += 5e-5 * irwin_hall(rng);
    xs[i] = v;
  }
  if (n == 0) return xs;
  const auto at = [&]() -> double& {
    return xs[rng.uniform(static_cast<std::uint32_t>(n))];
  };
  switch (kind) {
    case Kind::kDrift:
      break;
    case Kind::kSignedZeroDenormal:
      // A -0.0 sample over a positive fit normalizes to -0.0; denormal
      // samples normalize to denormals.
      for (std::uint32_t k = 0; k < 1 + n / 200; ++k) {
        at() = -0.0;
        at() = 4.9e-324;
        at() = -2.2e-310;
        at() = 0.0;
      }
      break;
    case Kind::kNonFinite:
      // Sparse: some windows keep a finite fit, the rest are flattened.
      for (std::uint32_t k = 0; k < 1 + n / 3000; ++k) {
        at() = std::numeric_limits<double>::quiet_NaN();
        at() = std::numeric_limits<double>::infinity();
        at() = -std::numeric_limits<double>::infinity();
      }
      break;
    case Kind::kNearZero:
      // Baselines straddling the 1e-12 near-zero-fit guard.
      for (std::size_t i = 0; i < n; ++i)
        xs[i] = (i % 3 == 0 ? 0.0 : 1e-12) * (1.0 + irwin_hall(rng)) +
                (i % 7 == 0 ? -0.0 : 0.0);
      break;
    case Kind::kHuge:
      // Polyfit sums overflow to infinity.
      for (double& x : xs) x *= 1e300;
      break;
  }
  return xs;
}

std::vector<DetrendConfig> configs() {
  return {
      {2, 2048, 256},  // the production default
      {2, 2048, 0},    {2, 2048, 1024}, {2, 64, 0},  {2, 64, 32},
      {2, 64, 7},      {1, 64, 16},     {0, 32, 8},  {3, 128, 64},
      {2, 5, 100},  // clamped to window 8, overlap 4
  };
}

std::vector<std::size_t> lengths(const DetrendConfig& config) {
  const std::size_t window = std::max<std::size_t>(config.window, 8);
  const std::size_t overlap = std::min(config.overlap, window / 2);
  const std::size_t stride = window - overlap;
  std::vector<std::size_t> out = {0,          1,          2,   window - 1,
                                  window,     window + 1, 900, 9000};
  for (std::size_t k = 1; k <= 3; ++k)
    for (const std::size_t base : {k * stride, k * stride + overlap}) {
      out.push_back(base - 1);
      out.push_back(base + 1);
    }
  return out;
}

TEST(DetrendGolden, OutputIsBitIdentical) {
  util::ThreadPool pool(3);  // concurrency 4
  crypto::Sha256 h;
  std::uint64_t seed = 0;
  std::size_t outputs = 0;
  for (const DetrendConfig& config : configs()) {
    for (const std::size_t n : lengths(config)) {
      for (const Kind kind :
           {Kind::kDrift, Kind::kSignedZeroDenormal, Kind::kNonFinite,
            Kind::kNearZero, Kind::kHuge}) {
        const std::vector<double> xs = signal(kind, n, ++seed);
        std::vector<double> serial(n), pooled(n);
        detrend_into(xs, config, serial, nullptr);
        detrend_into(xs, config, pooled, &pool);
        std::vector<double> serial_alias = xs;
        detrend_into(serial_alias, config, serial_alias, nullptr);
        std::vector<double> pooled_alias = xs;
        detrend_into(pooled_alias, config, pooled_alias, &pool);
        for (const auto* out :
             {&serial, &pooled, &serial_alias, &pooled_alias}) {
          ASSERT_TRUE(std::equal(out->begin(), out->end(), serial.begin(),
                                 [](double a, double b) {
                                   return std::bit_cast<std::uint64_t>(a) ==
                                          std::bit_cast<std::uint64_t>(b);
                                 }))
              << "window " << config.window << " overlap " << config.overlap
              << " n " << n << " kind " << static_cast<int>(kind);
          hash_u64(h, n);
          for (const double v : *out) hash_f64(h, v);
          ++outputs;
        }
      }
    }
  }
  EXPECT_GT(outputs, 0u);
  EXPECT_EQ(crypto::to_hex(h.finish()),
            "9efdc4bd591eda7ab142a220749df109045c7934df77044f6e08202ea2470b91");
}

/// perfbench's fleet upload shape: one 500 kHz channel, 2 s at 450 Hz
/// (900 samples) with two particle dips and ADC-grain noise.
util::MultiChannelSeries fleet_series(double first_dip, double second_dip) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 900; ++i) {
    const double x = static_cast<double>(i);
    double v = dip(x, first_dip * 450.0, 0.01, 3.6) *
               dip(x, second_dip * 450.0, 0.01, 3.6);
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

/// perfbench's clinical upload shape: 500 kHz and 2 MHz carriers, 20 s at
/// 450 Hz (2 x 9,000 samples), slow drift, sigma ~5e-5 noise and about a
/// hundred particle dips per channel.
util::MultiChannelSeries clinical_series(std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  constexpr std::size_t kSamples = 9000;
  std::vector<std::array<double, 3>> dips;  // center, depth, half-width
  for (int k = 0; k < 110; ++k)
    dips.push_back({rng.uniform_double() * kSamples,
                    3e-3 + 1e-2 * rng.uniform_double(),
                    1.5 + 2.0 * rng.uniform_double()});
  util::MultiChannelSeries series;
  for (const double carrier : {5.0e5, 2.0e6}) {
    std::vector<double> v(kSamples);
    const double gain = carrier > 1e6 ? 0.7 : 1.0;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const double x = static_cast<double>(i);
      const double u = x / kSamples;
      double s = 1.0 + 0.002 * (u - 2.0 * u * u + u * u * u);
      for (const auto& d : dips)
        if (x > d[0] - 40.0 && x < d[0] + 40.0)
          s *= dip(x, d[0], gain * d[1], d[2]);
      v[i] = s + 5e-5 / 0.577 * irwin_hall(rng);
    }
    series.carrier_frequencies_hz.push_back(carrier);
    series.channels.emplace_back(450.0, std::move(v), 0.0);
  }
  return series;
}

TEST(DetrendGolden, GatedAnalysisReportsAreByteIdentical) {
  std::vector<util::MultiChannelSeries> inputs;
  for (int k = 0; k < 4; ++k)
    inputs.push_back(fleet_series(0.4 + 0.1 * k, 1.1 + 0.12 * k));
  inputs.push_back(clinical_series(21));
  inputs.push_back(clinical_series(22));

  cloud::AnalysisConfig serial_config;
  serial_config.threads = 1;
  cloud::AnalysisConfig pooled_config;
  pooled_config.threads = 4;
  cloud::AnalysisService serial(serial_config);
  cloud::AnalysisService pooled(pooled_config);

  crypto::Sha256 h;
  for (const auto& series : inputs) {
    const cloud::GatedAnalysis a = serial.analyze_gated(series);
    const cloud::GatedAnalysis b = pooled.analyze_gated(series);
    ASSERT_TRUE(a.quality.acceptable) << a.quality.reason;
    ASSERT_GT(a.report.reference_peak_count(), 0u);
    const std::vector<std::uint8_t> bytes = a.report.serialize();
    ASSERT_EQ(b.report.serialize(), bytes);
    hash_u64(h, bytes.size());
    h.update(bytes);
    for (const cloud::ChannelQuality& c : a.quality.channels) {
      hash_f64(h, c.noise_rms);
      hash_f64(h, c.drift_span);
      hash_f64(h, c.dropout_fraction);
    }
  }
  EXPECT_EQ(crypto::to_hex(h.finish()),
            "492e89b0a4bd4cf2fcbeb51c3eec94f12dd3f9ebfc34bdad391a2b2e8c27c87e");
}

}  // namespace
}  // namespace medsen::dsp
