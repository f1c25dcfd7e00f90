// Differential test for the server's quality gate. With the gate on,
// CloudServer::handle answers an upload from one
// AnalysisService::analyze_gated() pass, which detrends each channel once
// for both the gate and peak detection. Its responses must be byte for
// byte those of the two standalone calls, assess_quality() and then
// AnalysisService::analyze(), and both sides must keep the same stats.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cloud/server.h"
#include "sim/acquisition.h"
#include "test_devices.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevice = 1;
const std::vector<std::uint8_t> kMacKey = testkit::device_key(kDevice);

using FaultSetup = std::function<void(sim::FaultConfig&)>;

/// The clinical benchmark's acquisition shape: 20 s on the 500 kHz and
/// 2 MHz carriers, nine electrodes, quiet noise and drift, plus whatever
/// sensor faults `setup` enables.
util::MultiChannelSeries acquisition(const FaultSetup& setup = {}) {
  sim::AcquisitionConfig config;
  config.carriers_hz = {5.0e5, 2.0e6};
  config.noise_sigma = 5e-5;
  config.drift.slow_amplitude = 0.002;
  config.drift.random_walk_sigma = 1e-6;
  if (setup) setup(config.faults);
  const auto design = sim::standard_design(9);
  const std::vector<sim::ControlSegment> control = {
      {0.0, design.all_mask(), {}, 0.08}};
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 250.0}};
  return sim::acquire(sample, sim::ChannelConfig{}, design, config, control,
                      20.0, 77)
      .signals;
}

/// The fleet workload's upload shape: 2 s at 450 Hz (900 samples, one
/// detrend window) on the first `carriers` of the 500 kHz and 2 MHz
/// carriers.
util::MultiChannelSeries fleet_upload(std::size_t carriers) {
  sim::AcquisitionConfig config;
  config.carriers_hz.assign({5.0e5, 2.0e6});
  config.carriers_hz.resize(carriers);
  config.noise_sigma = 5e-5;
  const auto design = sim::standard_design(9);
  const std::vector<sim::ControlSegment> control = {
      {0.0, design.all_mask(), {}, 0.08}};
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 2500.0}};
  return sim::acquire(sample, sim::ChannelConfig{}, design, config, control,
                      2.0, 91)
      .signals;
}

/// The clean acquisition with channel c cut to its first lengths[c]
/// samples, so one upload's channels differ in length.
util::MultiChannelSeries cut_to(const std::vector<std::size_t>& lengths) {
  auto series = acquisition();
  for (std::size_t c = 0; c < lengths.size(); ++c) {
    const auto samples = series.channels[c].samples().first(lengths[c]);
    series.channels[c] = util::TimeSeries(
        series.channels[c].sample_rate(),
        std::vector<double>(samples.begin(), samples.end()),
        series.channels[c].start_time());
  }
  return series;
}

util::MultiChannelSeries two_channels(const std::vector<double>& samples) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5, 2.0e6};
  series.channels.emplace_back(450.0, samples);
  series.channels.emplace_back(450.0, samples);
  return series;
}

struct Case {
  std::string name;
  util::MultiChannelSeries series;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    std::vector<Case> out;
    out.push_back({"clean", acquisition()});
    const std::vector<std::pair<std::string, FaultSetup>> faults = {
        {"open_electrode",
         [](sim::FaultConfig& f) {
           f.open.enabled = true;
           f.open.onset = {0.1, 0.2};
         }},
        {"shorted_electrode",
         [](sim::FaultConfig& f) {
           f.short_circuit.enabled = true;
           f.short_circuit.electrode = 2;
           f.short_circuit.onset = {0.1, 0.2};
         }},
        {"stuck_on_mux",
         [](sim::FaultConfig& f) {
           f.stuck_mux.enabled = true;
           f.stuck_mux.electrode = 4;
           f.stuck_mux.onset = {0.1, 0.2};
         }},
        {"bubbles", [](sim::FaultConfig& f) { f.bubbles.enabled = true; }},
        {"clog_stall",
         [](sim::FaultConfig& f) {
           f.clog.enabled = true;
           f.clog.onset = {0.15, 0.25};
           f.clog.tau_s = 2.0;
         }},
        {"adc_stuck",
         [](sim::FaultConfig& f) {
           f.adc_stuck.enabled = true;
           f.adc_stuck.channel = 1;
           f.adc_stuck.window_frac = 0.4;
         }},
        {"gain_drift",
         [](sim::FaultConfig& f) {
           f.gain_drift.enabled = true;
           f.gain_drift.onset = {0.1, 0.2};
           f.gain_drift.drift_per_s = 0.08;
         }},
        {"saturation",
         [](sim::FaultConfig& f) {
           f.saturation.enabled = true;
           f.saturation.channel = 1;
           f.saturation.onset = {0.1, 0.2};
         }},
        {"multi_fault",
         [](sim::FaultConfig& f) {
           f.saturation.enabled = true;
           f.saturation.channel = 0;
           f.adc_stuck.enabled = true;
           f.adc_stuck.channel = 1;
           f.bubbles.enabled = true;
         }},
    };
    for (const auto& [name, setup] : faults)
      out.push_back({name, acquisition(setup)});

    auto empty_channel = acquisition();
    empty_channel.channels[1] = util::TimeSeries(450.0);
    out.push_back({"empty_channel", std::move(empty_channel)});
    out.push_back({"no_channels", util::MultiChannelSeries{}});
    out.push_back({"one_sample", two_channels({1.0})});
    out.push_back({"two_samples", two_channels({1.0, 1.0005})});
    out.push_back({"three_samples", two_channels({1.0, 1.0005, 0.9998})});
    // Fleet-shaped uploads, and channels of differing lengths: one pooled
    // scratch meets changing window lengths within a request and across
    // requests.
    out.push_back({"fleet_one_channel", fleet_upload(1)});
    out.push_back({"fleet_two_channels", fleet_upload(2)});
    out.push_back({"lengths_900_2500", cut_to({900, 2500})});
    out.push_back({"lengths_2048_2049", cut_to({2048, 2049})});
    out.push_back({"lengths_3_900", cut_to({3, 900})});
    auto infinite = acquisition();
    infinite.channels[0][1234] = std::numeric_limits<double>::infinity();
    infinite.channels[1][5678] = -std::numeric_limits<double>::infinity();
    out.push_back({"plus_minus_inf", std::move(infinite)});
    auto nan = acquisition();
    nan.channels[1][4321] = std::numeric_limits<double>::quiet_NaN();
    out.push_back({"nan", std::move(nan)});
    return out;
  }();
  return all;
}

/// What the two standalone calls answer: assess_quality(), then
/// analyze() on an acceptable upload.
net::Envelope reference_response(const util::MultiChannelSeries& series,
                                  AnalysisService& analysis) {
  net::Envelope response;
  const QualityReport quality = assess_quality(series);
  if (!quality.acceptable) {
    net::ErrorPayload error;
    error.code = net::ErrorCode::kQualityRejected;
    error.subcode = static_cast<std::uint8_t>(quality.reason_code);
    error.detail = "acquisition rejected (" + quality.reason + ")";
    error.channel_reasons = quality.channel_failure_bytes();
    response.type = net::MessageType::kError;
    response.payload = error.serialize();
    return response;
  }
  response.type = net::MessageType::kAnalysisResult;
  response.payload = analysis.analyze(series).serialize();
  return response;
}

/// Analysis threads and detrend window. The gate always scores the
/// default detrend; an analysis with another window must detrend twice.
class GatedAnalysis
    : public ::testing::TestWithParam<std::pair<unsigned, std::size_t>> {};

TEST_P(GatedAnalysis, HandleMatchesAssessThenAnalyze) {
  AnalysisConfig config;
  config.threads = GetParam().first;
  config.detrend.window = GetParam().second;
  CloudServer server(config, auth::CytoAlphabet{},
                     auth::ParticleClassifier::train({}));
  testkit::enroll(server, kDevice);
  AnalysisService reference(config);
  AnalysisService fused(config);

  std::uint64_t session = 1;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (const auto& c : cases()) {
    SCOPED_TRACE(c.name);
    net::SignalUploadPayload upload;
    upload.compressed = true;
    upload.sample_rate_hz = 450.0;
    upload.data = net::pack_series(c.series);
    const auto response = server.handle(
        net::make_envelope(net::MessageType::kSignalUpload, session++,
                           kDevice, upload.serialize(), kMacKey));
    const auto expected = reference_response(c.series, reference);

    ASSERT_EQ(response.type, expected.type);
    if (expected.type == net::MessageType::kError) {
      ++rejected;
      EXPECT_NE(c.name, "clean") << "the clean upload must pass the gate";
      const auto got = net::ErrorPayload::deserialize(response.payload);
      const auto want = net::ErrorPayload::deserialize(expected.payload);
      EXPECT_EQ(got.code, want.code);
      EXPECT_EQ(got.subcode, want.subcode);
      EXPECT_EQ(got.detail, want.detail);
      EXPECT_EQ(got.channel_reasons, want.channel_reasons);
      // The multi-fault upload fails on both channels.
      if (c.name == "multi_fault") {
        for (const std::uint8_t bits : want.channel_reasons)
          EXPECT_NE(bits, 0u);
      }
    } else {
      ++accepted;
      if (c.name == "clean" || c.name.starts_with("fleet")) {
        EXPECT_GT(reference.stats().peaks_found, 0u);
      }
    }
    if (c.name.starts_with("fleet") || c.name.starts_with("lengths")) {
      EXPECT_EQ(expected.type, net::MessageType::kAnalysisResult)
          << "the " << c.name << " upload must pass the gate";
    }
    EXPECT_EQ(response.payload, expected.payload);

    // The scores behind the verdict match to the bit, not just the
    // failure bits derived from them.
    const QualityReport scored = fused.analyze_gated(c.series).quality;
    const QualityReport assessed = assess_quality(c.series);
    ASSERT_EQ(scored.channels.size(), assessed.channels.size());
    for (std::size_t i = 0; i < assessed.channels.size(); ++i) {
      const auto& g = scored.channels[i];
      const auto& w = assessed.channels[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.noise_rms),
                std::bit_cast<std::uint64_t>(w.noise_rms));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.drift_span),
                std::bit_cast<std::uint64_t>(w.drift_span));
      EXPECT_EQ(g.dropout_fraction, w.dropout_fraction);
      EXPECT_EQ(g.saturated, w.saturated);
      EXPECT_EQ(g.failure_bits, w.failure_bits);
    }

    const ServiceStats stats = server.stats();
    EXPECT_EQ(stats.requests_processed, accepted);
    EXPECT_EQ(stats.errors_returned, rejected);
    EXPECT_EQ(server.analysis().stats().samples_processed,
              reference.stats().samples_processed);
    EXPECT_EQ(server.analysis().stats().peaks_found,
              reference.stats().peaks_found);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndWindow, GatedAnalysis,
                         ::testing::Values(std::pair{1u, std::size_t{2048}},
                                           std::pair{4u, std::size_t{2048}},
                                           std::pair{1u, std::size_t{1024}}));

}  // namespace
}  // namespace medsen::cloud
