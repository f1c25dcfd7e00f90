#include "cloud/quality.h"

#include <gtest/gtest.h>

#include <cmath>

#include "crypto/chacha20.h"
#include "sim/signal_synth.h"

namespace medsen::cloud {
namespace {

util::MultiChannelSeries healthy_series(std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  const std::size_t n = 9000;
  sim::DriftConfig drift;
  auto samples = sim::synth_baseline(n, 450.0, 0.0, drift, rng);
  std::vector<double> depth(n, 0.0);
  sim::add_gaussian_pulse(depth, 450.0, 0.0, 10.0, 0.01, 0.01);
  for (std::size_t i = 0; i < n; ++i) samples[i] *= 1.0 - depth[i];
  sim::add_white_noise(samples, 1.2e-4, rng);

  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::move(samples));
  return series;
}

TEST(Quality, HealthyAcquisitionAccepted) {
  const auto report = assess_quality(healthy_series(1));
  EXPECT_TRUE(report.acceptable) << report.reason;
  ASSERT_EQ(report.channels.size(), 1u);
  EXPECT_LT(report.channels[0].noise_rms, 1e-3);
}

TEST(Quality, EmptySeriesRejected) {
  const auto report = assess_quality(util::MultiChannelSeries{});
  EXPECT_FALSE(report.acceptable);
  EXPECT_EQ(report.reason, "no channels");
}

TEST(Quality, ExcessNoiseRejected) {
  auto series = healthy_series(2);
  crypto::ChaChaRng rng(3);
  sim::add_white_noise(series.channels[0].storage(), 5e-3, rng);
  const auto report = assess_quality(series);
  EXPECT_FALSE(report.acceptable);
  EXPECT_NE(report.reason.find("noise"), std::string::npos);
}

TEST(Quality, SaturationRejected) {
  auto series = healthy_series(4);
  for (std::size_t i = 0; i < 500; ++i)
    series.channels[0][i] = 2.5;  // clipped electronics
  const auto report = assess_quality(series);
  EXPECT_FALSE(report.acceptable);
  EXPECT_NE(report.reason.find("saturated"), std::string::npos);
}

TEST(Quality, DropoutsRejected) {
  auto series = healthy_series(5);
  // A stuck ADC: a long run of identical samples.
  for (std::size_t i = 1000; i < 2500; ++i) series.channels[0][i] = 1.0;
  const auto report = assess_quality(series);
  EXPECT_FALSE(report.acceptable);
  EXPECT_NE(report.reason.find("dropout"), std::string::npos);
}

TEST(Quality, DriftOutOfRangeRejected) {
  auto series = healthy_series(6);
  const std::size_t n = series.channels[0].size();
  for (std::size_t i = 0; i < n; ++i)
    series.channels[0][i] +=
        0.4 * static_cast<double>(i) / static_cast<double>(n);
  QualityConfig config;
  config.max_plausible = 2.0;  // keep saturation check out of the way
  const auto report = assess_quality(series, config);
  EXPECT_FALSE(report.acceptable);
  EXPECT_NE(report.reason.find("drift"), std::string::npos);
}

TEST(Quality, ReportsFirstBadChannel) {
  auto series = healthy_series(7);
  series.channels.push_back(util::TimeSeries(450.0));  // empty channel 1
  series.carrier_frequencies_hz.push_back(2.0e6);
  const auto report = assess_quality(series);
  EXPECT_FALSE(report.acceptable);
  EXPECT_NE(report.reason.find("channel 1"), std::string::npos);
}

TEST(Quality, EveryCheckIsScoredNotJustTheFirstFailure) {
  // A channel both saturated AND full of dropouts must report both
  // failures: recovery planning needs the full signature, not the first
  // check that happened to trip.
  auto series = healthy_series(8);
  for (std::size_t i = 0; i < 2500; ++i) series.channels[0][i] = 2.5;
  const auto report = assess_quality(series);
  ASSERT_EQ(report.channels.size(), 1u);
  const auto& channel = report.channels[0];
  EXPECT_TRUE(channel.failed(QualityReason::kSaturated));
  EXPECT_TRUE(channel.failed(QualityReason::kDropout));
  // The summary stays the single most severe reason for wire compat.
  EXPECT_EQ(report.reason_code, QualityReason::kSaturated);
  EXPECT_EQ(channel.worst, QualityReason::kSaturated);
}

TEST(Quality, PerChannelReasonBytesMatchWorstPerChannel) {
  auto series = healthy_series(9);
  auto bad = healthy_series(10);
  crypto::ChaChaRng rng(11);
  sim::add_white_noise(bad.channels[0].storage(), 5e-3, rng);
  series.channels.push_back(bad.channels[0]);
  series.carrier_frequencies_hz.push_back(2.0e6);

  const auto report = assess_quality(series);
  EXPECT_FALSE(report.acceptable);
  ASSERT_EQ(report.channels.size(), 2u);
  EXPECT_EQ(report.channels[0].worst, QualityReason::kNone);
  EXPECT_EQ(report.channels[1].worst, QualityReason::kNoiseFloor);
}

TEST(Quality, MultipleFailingChannelsNotedInSummary) {
  auto series = healthy_series(12);
  series.channels.push_back(series.channels[0]);
  series.carrier_frequencies_hz.push_back(2.0e6);
  for (auto& channel : series.channels)
    for (std::size_t i = 0; i < 500; ++i) channel[i] = 2.5;
  const auto report = assess_quality(series);
  EXPECT_FALSE(report.acceptable);
  EXPECT_NE(report.reason.find("channel 0"), std::string::npos);
  EXPECT_NE(report.reason.find("+1 more failing channel"),
            std::string::npos);
}

}  // namespace
}  // namespace medsen::cloud
