#include "cloud/analysis_service.h"

#include <gtest/gtest.h>

#include <cmath>

#include "crypto/chacha20.h"

namespace medsen::cloud {
namespace {

util::MultiChannelSeries series_with_dips(std::size_t n,
                                          const std::vector<double>& at,
                                          double depth) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5, 2.0e6};
  for (int ch = 0; ch < 2; ++ch) {
    util::TimeSeries ts(450.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / 450.0;
      double v = 1.0 + 2e-5 * static_cast<double>(i);  // drift
      for (double center : at) {
        const double z = (t - center) / 0.008;
        v *= 1.0 - depth * std::exp(-0.5 * z * z);
      }
      ts.push_back(v);
    }
    series.channels.push_back(std::move(ts));
  }
  return series;
}

TEST(AnalysisService, FindsPeaksOnEveryChannel) {
  AnalysisService service;
  const auto series = series_with_dips(9000, {5.0, 10.0, 15.0}, 0.01);
  const auto report = service.analyze(series);
  ASSERT_EQ(report.channels.size(), 2u);
  EXPECT_EQ(report.channels[0].peaks.size(), 3u);
  EXPECT_EQ(report.channels[1].peaks.size(), 3u);
  EXPECT_DOUBLE_EQ(report.channels[0].carrier_hz, 5.0e5);
}

TEST(AnalysisService, PeakTimesAccurate) {
  AnalysisService service;
  const auto series = series_with_dips(9000, {7.5}, 0.012);
  const auto report = service.analyze(series);
  ASSERT_EQ(report.channels[0].peaks.size(), 1u);
  EXPECT_NEAR(report.channels[0].peaks[0].time_s, 7.5, 0.02);
  EXPECT_NEAR(report.channels[0].peaks[0].amplitude, 0.012, 0.004);
}

TEST(AnalysisService, DriftAloneYieldsNoPeaks) {
  AnalysisService service;
  const auto series = series_with_dips(9000, {}, 0.0);
  const auto report = service.analyze(series);
  EXPECT_TRUE(report.channels[0].peaks.empty());
}

TEST(AnalysisService, AdaptiveThresholdHandlesNoiseSpread) {
  // The same 1.2% dips on a quiet and on a noisy channel: a fixed
  // threshold tuned for one misbehaves on the other; the adaptive mode
  // nails both without retuning.
  crypto::ChaChaRng rng(42);
  auto make = [&](double noise_sigma) {
    util::MultiChannelSeries series;
    series.carrier_frequencies_hz = {5.0e5};
    util::TimeSeries ts(450.0);
    for (std::size_t i = 0; i < 9000; ++i) {
      const double t = static_cast<double>(i) / 450.0;
      double v = 1.0;
      for (double center : {5.0, 10.0, 15.0}) {
        const double z = (t - center) / 0.008;
        v *= 1.0 - 0.012 * std::exp(-0.5 * z * z);
      }
      ts.push_back(v + rng.normal(0.0, noise_sigma));
    }
    series.channels.push_back(std::move(ts));
    return series;
  };

  AnalysisConfig config;
  config.adaptive_threshold = true;
  AnalysisService service(config);
  EXPECT_EQ(service.analyze(make(5e-5)).reference_peak_count(), 3u);
  EXPECT_EQ(service.analyze(make(4e-4)).reference_peak_count(), 3u);
}

TEST(AnalysisService, EmptySeries) {
  AnalysisService service;
  util::MultiChannelSeries series;
  const auto report = service.analyze(series);
  EXPECT_TRUE(report.channels.empty());
}

}  // namespace
}  // namespace medsen::cloud
