#include "dsp/detrend.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "util/stats.h"

namespace medsen::dsp {
namespace {

TEST(Detrend, FlatSignalStaysUnit) {
  std::vector<double> xs(5000, 2.5);
  const auto out = detrend(xs);
  for (double v : out) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Detrend, RemovesLinearDrift) {
  std::vector<double> xs;
  for (int i = 0; i < 8000; ++i) xs.push_back(1.0 + 1e-4 * i);
  const auto out = detrend(xs);
  EXPECT_NEAR(util::mean(out), 1.0, 1e-4);
  EXPECT_LT(util::stddev(out), 1e-3);
}

TEST(Detrend, RemovesSlowSinusoid) {
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    const double t = i / 450.0;
    xs.push_back(1.0 + 0.01 * std::sin(2.0 * std::numbers::pi * t / 120.0));
  }
  const auto out = detrend(xs);
  EXPECT_LT(util::stddev(out), 2e-4);
}

TEST(Detrend, PreservesPeakDepth) {
  // A narrow dip on a drifting baseline must survive detrending with its
  // relative depth approximately intact.
  std::vector<double> xs;
  const std::size_t n = 6000;
  for (std::size_t i = 0; i < n; ++i) {
    double v = 1.0 + 5e-5 * static_cast<double>(i);
    const double z = (static_cast<double>(i) - 3000.0) / 4.0;
    v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    xs.push_back(v);
  }
  const auto out = detrend(xs);
  double min_v = 1.0;
  for (double v : out) min_v = std::min(min_v, v);
  EXPECT_NEAR(1.0 - min_v, 0.01, 0.003);
}

TEST(Detrend, EmptyInput) {
  EXPECT_TRUE(detrend(std::vector<double>{}).empty());
}

TEST(Detrend, ShortInputFallsBackGracefully) {
  std::vector<double> xs = {2.0, 2.0, 2.0};
  const auto out = detrend(xs);
  ASSERT_EQ(out.size(), 3u);
  for (double v : out) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Detrend, InPlaceVariantMatches) {
  util::TimeSeries ts(450.0);
  for (int i = 0; i < 3000; ++i) ts.push_back(1.0 + 1e-5 * i);
  const auto expected = detrend(ts.samples());
  detrend_in_place(ts);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_DOUBLE_EQ(ts[i], expected[i]);
}

class DetrendWindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DetrendWindowSweep, BaselineNormalizedForAnyWindow) {
  DetrendConfig config;
  config.window = GetParam();
  config.overlap = GetParam() / 8;
  std::vector<double> xs;
  for (int i = 0; i < 9000; ++i)
    xs.push_back(3.0 - 1e-5 * i + 2e-9 * i * static_cast<double>(i));
  const auto out = detrend(xs, config);
  EXPECT_NEAR(util::mean(out), 1.0, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Windows, DetrendWindowSweep,
                         ::testing::Values(256, 512, 1024, 2048, 4096));

std::vector<double> drifting_signal(std::size_t n, double jitter_scale) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    xs[i] = 2.0 + 1e-4 * x + jitter_scale * std::sin(0.7 * x) -
            0.01 * std::exp(-0.5 * std::pow((x - 0.3 * n) / 4.0, 2.0));
  }
  return xs;
}

TEST(Detrend, WorkspaceOverloadBitIdenticalToPlain) {
  // The allocation-free workspace overload must not change a single bit,
  // across odd lengths, signals shorter than one window, and lengths
  // landing exactly on window/overlap edges.
  DetrendConfig config;
  config.window = 512;
  config.overlap = 64;
  DetrendWorkspace workspace;
  for (std::size_t n : {7u, 100u, 511u, 512u, 575u, 10007u}) {
    const auto xs = drifting_signal(n, 1e-3);
    std::vector<double> plain(n), pooled(n);
    detrend_into(xs, config, plain, nullptr);
    detrend_into(xs, config, pooled, nullptr, workspace);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_DOUBLE_EQ(pooled[i], plain[i]) << "n=" << n << " i=" << i;
  }
}

TEST(Detrend, WorkspaceReuseAcrossSignalsLeavesNoResidue) {
  // A workspace warmed on one signal must give the same answer on the
  // next signal as a fresh workspace (scratch contents are never read).
  DetrendConfig config;
  config.window = 256;
  config.overlap = 32;
  const auto first = drifting_signal(9000, 2e-3);
  const auto second = drifting_signal(4001, 5e-4);
  DetrendWorkspace reused, fresh;
  std::vector<double> scratch_out(first.size());
  detrend_into(first, config, scratch_out, nullptr, reused);

  std::vector<double> warm(second.size()), cold(second.size());
  detrend_into(second, config, warm, nullptr, reused);
  detrend_into(second, config, cold, nullptr, fresh);
  for (std::size_t i = 0; i < second.size(); ++i)
    EXPECT_DOUBLE_EQ(warm[i], cold[i]) << i;

  // One workspace through changing lengths (one window, two, a short
  // last window, fewer samples than a fit needs) at the default window
  // and degrees 1-3: every output bit must match a fresh workspace's.
  // Fits through one reused scratch, alone or taking turns with the
  // reference fit, must likewise match the reference.
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  DetrendWorkspace shared;
  PolyfitScratch poly, fast_only;
  for (unsigned degree = 1; degree <= 3; ++degree) {
    DetrendConfig defaults;
    defaults.poly_degree = degree;
    for (const std::size_t n : {900u, 2048u, 2049u, 4000u, 3u, 2u, 900u}) {
      const auto xs = drifting_signal(n, 1e-3);
      std::vector<double> got(n), want(n);
      DetrendWorkspace cold_workspace;
      detrend_into(xs, defaults, got, nullptr, shared);
      detrend_into(xs, defaults, want, nullptr, cold_workspace);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(same_bits(got[i], want[i]))
            << "degree " << degree << " n " << n << " i " << i;
      if (n < degree + 1) continue;
      const auto copy = [](std::span<const double> coeffs) {
        return std::vector<double>(coeffs.begin(), coeffs.end());
      };
      const auto before = copy(polyfit_indices(xs, degree, poly));
      const auto expected = copy(polyfit_indices_reference(xs, degree, poly));
      const auto after = copy(polyfit_indices(xs, degree, poly));
      const auto alone = copy(polyfit_indices(xs, degree, fast_only));
      for (const auto* fitted : {&before, &after, &alone}) {
        ASSERT_EQ(fitted->size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
          EXPECT_TRUE(same_bits((*fitted)[k], expected[k]))
              << "degree " << degree << " n " << n << " coeff " << k;
      }
    }
  }
}

TEST(Detrend, WorkspaceBitIdenticalAcrossThreadCounts) {
  // Serial, 2-way and 8-way pools must all produce the serial result
  // bit-for-bit, with and without a reused workspace.
  DetrendConfig config;
  config.window = 1024;
  config.overlap = 128;
  const auto xs = drifting_signal(50021, 1e-3);  // odd length
  std::vector<double> serial(xs.size());
  detrend_into(xs, config, serial, nullptr);

  DetrendWorkspace workspace;
  for (unsigned workers : {1u, 3u, 7u}) {  // concurrency 2, 4, 8
    util::ThreadPool pool(workers);
    std::vector<double> pooled(xs.size());
    detrend_into(xs, config, pooled, &pool, workspace);
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_DOUBLE_EQ(pooled[i], serial[i])
          << "workers=" << workers << " i=" << i;
  }
}

}  // namespace
}  // namespace medsen::dsp
