#include "phone/relay.h"
#include "test_devices.h"

#include <gtest/gtest.h>

#include <cmath>

#include "compress/codec.h"

namespace medsen::phone {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);

util::MultiChannelSeries dip_series(std::size_t dips, std::size_t n = 9000) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (std::size_t d = 0; d < dips; ++d) {
      const double z = (t - (3.0 + 2.0 * static_cast<double>(d))) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    // A grain of quantized (ADC-like) noise so the quality gate's
    // stuck-ADC detector sees a live signal while the samples stay
    // compressible.
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

cloud::CloudServer make_server() {
  return cloud::CloudServer(cloud::AnalysisConfig{}, auth::CytoAlphabet{},
                            auth::ParticleClassifier::train({}));
}

TEST(PhoneRelay, RelaysAndReturnsReport) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  PhoneRelay relay;
  const auto response =
      relay.relay_analysis(dip_series(3), 11, server, kMacKey);
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
  const auto report = core::PeakReport::deserialize(response.payload);
  EXPECT_EQ(report.reference_peak_count(), 3u);
}

TEST(PhoneRelay, TimingBreakdownPopulated) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  PhoneRelay relay;
  (void)relay.relay_analysis(dip_series(2), 1, server, kMacKey);
  const RelayTiming& timing = relay.timing();
  EXPECT_GT(timing.usb_in_s, 0.0);
  EXPECT_GT(timing.uplink_s, 0.0);
  EXPECT_GT(timing.analysis_s, 0.0);
  EXPECT_GT(timing.downlink_s, 0.0);
  EXPECT_NEAR(timing.total_s(),
              timing.usb_in_s + timing.compression_s + timing.uplink_s +
                  timing.analysis_s + timing.downlink_s + timing.usb_out_s,
              1e-12);
}

TEST(PhoneRelay, CompressionShrinksUpload) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  RelayConfig with;
  with.compress_uploads = true;
  RelayConfig without;
  without.compress_uploads = false;
  PhoneRelay compressed(with), raw(without);
  const auto series = dip_series(2);
  (void)compressed.relay_analysis(series, 1, server, kMacKey);
  (void)raw.relay_analysis(series, 2, server, kMacKey);
  EXPECT_LT(compressed.last_upload_bytes(), raw.last_upload_bytes() / 2);
  // Byte planes are no larger than the whole series in one MSZ1
  // container, the upload older relays send.
  EXPECT_LE(compressed.last_upload_bytes(),
            compress::compress(net::serialize_series(series)).size());
}

TEST(PhoneRelay, SmallUploadSkipsCompression) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  PhoneRelay relay;
  (void)relay.relay_analysis(dip_series(0, 100), 1, server, kMacKey);
  EXPECT_DOUBLE_EQ(relay.timing().compression_s, 0.0);
}

TEST(PhoneRelay, ProgressEventsEmitted) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  PhoneRelay relay;
  std::vector<std::string> events;
  relay.set_progress_callback(
      [&](const std::string& msg) { events.push_back(msg); });
  (void)relay.relay_analysis(dip_series(1), 1, server, kMacKey);
  EXPECT_GE(events.size(), 3u);
  EXPECT_EQ(events.back(), "analysis complete");
}

TEST(PhoneRelay, LocalAnalysisScaledByProfile) {
  RelayConfig config;
  config.profile = nexus5_profile();
  PhoneRelay relay(config);
  const auto report =
      relay.analyze_locally(dip_series(2), cloud::AnalysisConfig{});
  EXPECT_EQ(report.reference_peak_count(), 2u);
  EXPECT_GT(relay.timing().analysis_s, 0.0);
}

RelayConfig lossy_config(double drop_rate) {
  RelayConfig config;
  config.reliable_transport = true;
  config.uplink_faults.drop_rate = drop_rate;
  config.uplink_faults.corrupt_rate = 0.02;
  config.uplink_faults.duplicate_rate = 0.05;
  config.uplink_faults.seed = 1234;
  config.downlink_faults = config.uplink_faults;
  config.downlink_faults.seed = 5678;
  config.reliable.chunk_bytes = 256;  // many chunks -> faults guaranteed
  config.reliable.retry_budget = 400;
  return config;
}

TEST(PhoneRelay, LossyLinkRoundTripBitIdenticalToLossless) {
  const auto series = dip_series(3);

  auto lossless_server = make_server();
  testkit::enroll(lossless_server, RelayConfig{}.device_id);
  PhoneRelay lossless;
  const auto clean =
      lossless.relay_analysis(series, 31, lossless_server, kMacKey);

  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  PhoneRelay relay(lossy_config(0.10));
  const auto response = relay.relay_analysis(series, 31, server, kMacKey);

  // The ARQ layer must hand the cloud the exact upload and the phone the
  // exact response: the serialized PeakReport is bit-identical.
  EXPECT_EQ(response.payload, clean.payload);
  EXPECT_TRUE(net::verify_envelope(response, kMacKey));
  EXPECT_FALSE(relay.timing().local_fallback);
  EXPECT_GT(relay.timing().retransmissions, 0u);
  EXPECT_GT(relay.timing().timeouts, 0u);
  // Retransmissions and timeout waits make the lossy uplink slower than
  // the idealized one.
  EXPECT_GT(relay.timing().uplink_s, lossless.timing().uplink_s);
}

TEST(PhoneRelay, RetryBudgetExhaustionFallsBackToLocalAnalysis) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  auto config = lossy_config(1.0);  // black hole
  config.reliable.retry_budget = 4;
  PhoneRelay relay(config);
  const auto series = dip_series(2);

  std::vector<std::string> events;
  relay.set_progress_callback(
      [&](const std::string& msg) { events.push_back(msg); });

  net::Envelope response;
  ASSERT_NO_THROW(response =
                      relay.relay_analysis(series, 32, server, kMacKey));
  EXPECT_TRUE(relay.timing().local_fallback);
  EXPECT_EQ(server.requests_processed(), 0u);  // cloud never reached
  // The fallback result is a genuine analysis of the same series.
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
  const auto report = core::PeakReport::deserialize(response.payload);
  EXPECT_EQ(report.reference_peak_count(), 2u);
  EXPECT_GT(relay.timing().analysis_s, 0.0);
  bool announced = false;
  for (const auto& e : events)
    announced |= e.find("analyzing locally") != std::string::npos;
  EXPECT_TRUE(announced);
}

TEST(PhoneRelay, LossyAuthThrowsWhenBudgetExhausted) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  auto config = lossy_config(1.0);
  config.reliable.retry_budget = 2;
  PhoneRelay relay(config);
  EXPECT_THROW((void)relay.relay_auth(dip_series(1), 33, 1.0, server, kMacKey),
               net::TransportError);
}

TEST(PhoneRelay, AuthProgressReportsDownload) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  PhoneRelay relay;
  std::vector<std::string> events;
  relay.set_progress_callback(
      [&](const std::string& msg) { events.push_back(msg); });
  (void)relay.relay_auth(dip_series(1), 34, 1.0, server, kMacKey);
  bool download_reported = false;
  for (const auto& e : events)
    download_reported |= e == "downloading auth decision";
  EXPECT_TRUE(download_reported);
  EXPECT_EQ(events.back(), "authentication complete");
}

TEST(PhoneRelay, QualityRejectionArrivesAsStructuredError) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  // A clipped acquisition: the relay still completes the round trip, and
  // the client can read the machine-readable reason from the envelope.
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(5000, 2.5));
  PhoneRelay relay;
  const auto response = relay.relay_analysis(series, 41, server, kMacKey);
  EXPECT_EQ(response.type, net::MessageType::kError);
  const auto error = net::ErrorPayload::deserialize(response.payload);
  EXPECT_EQ(error.code, net::ErrorCode::kQualityRejected);
  EXPECT_EQ(error.subcode,
            static_cast<std::uint8_t>(cloud::QualityReason::kSaturated));
}

TEST(PhoneRelay, UnprovisionedDeviceArrivesAsError) {
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  RelayConfig config;
  config.device_id = 99;  // never provisioned
  PhoneRelay relay(config);
  const auto response = relay.relay_analysis(dip_series(1), 1, server, kMacKey);
  EXPECT_EQ(response.type, net::MessageType::kError);
  const auto error = net::ErrorPayload::deserialize(response.payload);
  EXPECT_EQ(error.code, net::ErrorCode::kUnknownDevice);
}

// --- Session-plane (EV2-style) relay tests ----------------------------

core::Controller make_controller(std::uint64_t seed = 11) {
  core::KeyParams key_params;
  key_params.num_electrodes = 9;
  key_params.period_s = 4.0;
  return core::Controller(key_params, sim::standard_design(9),
                          core::DiagnosticProfile::cd4_staging(), seed);
}

// AcquireFn that ignores the control trace and hands back a clean
// acquisition — these tests exercise the session plane, not the sensor.
AcquireFn clean_acquire() {
  return [](std::span<const sim::ControlSegment>, double, std::size_t) {
    return dip_series(3);
  };
}

TEST(PhoneRelay, EstablishSessionDerivesMatchingKeys) {
  auto server = make_server();
  auto controller = make_controller();
  PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, kMacKey);

  ASSERT_TRUE(relay.establish_session(controller, 100, server));
  auto* crypto = controller.session_crypto();
  ASSERT_NE(crypto, nullptr);
  EXPECT_TRUE(crypto->active());
  const auto server_key =
      server.sessions().session_key(relay.config().device_id, 100);
  ASSERT_TRUE(server_key.has_value());
  EXPECT_EQ(*server_key, crypto->session_mac_key());
}

TEST(PhoneRelay, EstablishSessionFailsWithoutArmedCrypto) {
  auto server = make_server();
  auto controller = make_controller();
  PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  EXPECT_FALSE(relay.establish_session(controller, 100, server));
}

TEST(PhoneRelay, SessionPlaneRelayStampsCounters) {
  auto server = make_server();
  auto controller = make_controller();
  PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, kMacKey);
  ASSERT_TRUE(relay.establish_session(controller, 100, server));
  auto* crypto = controller.session_crypto();

  const auto series = dip_series(3);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const auto response =
        relay.relay_analysis(series, /*session_id=*/0, server, {}, crypto);
    ASSERT_EQ(response.type, net::MessageType::kAnalysisResult);
    EXPECT_EQ(response.counter, i);
    EXPECT_EQ(response.session_id, 100u);
    EXPECT_TRUE(net::verify_envelope(response, crypto->session_mac_key()));
  }
}

TEST(PhoneRelay, SessionLossSurfacesAuthRequired) {
  auto server = make_server();
  auto controller = make_controller();
  PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, kMacKey);
  ASSERT_TRUE(relay.establish_session(controller, 100, server));
  auto* crypto = controller.session_crypto();

  // The server forgets the session (restart / rotation)...
  server.sessions().drop(relay.config().device_id);
  const auto response =
      relay.relay_analysis(dip_series(3), 0, server, {}, crypto);
  ASSERT_EQ(response.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(response.payload).code,
            net::ErrorCode::kAuthRequired);

  // ...and a fresh handshake restores service with counters reset.
  crypto->invalidate();
  ASSERT_TRUE(relay.establish_session(controller, 101, server));
  const auto again = relay.relay_analysis(dip_series(3), 0, server, {}, crypto);
  EXPECT_EQ(again.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(again.counter, 1u);
}

TEST(PhoneRelay, DiagnosticSessionRidesSessionPlane) {
  auto server = make_server();
  auto controller = make_controller();
  PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, kMacKey);

  const auto outcome = relay.run_diagnostic_session(
      controller, 20.0, clean_acquire(), /*session_base_id=*/100, server,
      kMacKey);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_FALSE(outcome.degraded);
  // One handshake, and the analysis rode the negotiated session with a
  // MAC under the derived key, not the static kMacKey.
  EXPECT_EQ(server.stats().handshakes_completed, 1u);
  EXPECT_EQ(outcome.last_response.counter, 1u);
  auto* crypto = controller.session_crypto();
  ASSERT_NE(crypto, nullptr);
  EXPECT_TRUE(
      net::verify_envelope(outcome.last_response, crypto->session_mac_key()));
}

// Mid-session re-key: the server drops the session between the
// handshake and the first command (the AcquireFn is the hook that runs
// in exactly that gap). The loop must re-handshake and resend instead
// of failing the attempt.
TEST(PhoneRelay, DiagnosticSessionRekeysAfterServerSessionLoss) {
  auto server = make_server();
  auto controller = make_controller();
  PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, kMacKey);

  bool dropped = false;
  const AcquireFn acquire =
      [&](std::span<const sim::ControlSegment>, double, std::size_t) {
        if (!dropped) {
          server.sessions().drop(relay.config().device_id);
          dropped = true;
        }
        return dip_series(3);
      };

  const auto outcome = relay.run_diagnostic_session(
      controller, 20.0, acquire, /*session_base_id=*/100, server, kMacKey);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(server.stats().handshakes_completed, 2u);
  // The resend restarted counters under the re-keyed session.
  EXPECT_EQ(outcome.last_response.counter, 1u);
  auto* crypto = controller.session_crypto();
  EXPECT_TRUE(
      net::verify_envelope(outcome.last_response, crypto->session_mac_key()));
}

// ARQ retransmissions on lossy links must never trip the anti-replay
// window: a retransmitted command finds the cached response; only a
// *new* envelope reusing a burned counter is rejected.
TEST(PhoneRelay, SessionPlaneSurvivesLossyTransport) {
  auto server = make_server();
  auto controller = make_controller();
  auto config = lossy_config(0.08);
  config.reliable.retry_budget = 400;
  PhoneRelay relay(config);
  testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, kMacKey);

  ASSERT_TRUE(relay.establish_session(controller, 100, server));
  auto* crypto = controller.session_crypto();
  const auto response =
      relay.relay_analysis(dip_series(3), 0, server, {}, crypto);
  ASSERT_EQ(response.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(response.counter, 1u);
  EXPECT_EQ(server.stats().counter_rejections, 0u);
}

// perfbench's clinical acquisition shape: two carriers, 20 s at 450 Hz,
// quiet sensor noise, keyed over a 9-electrode array.
util::MultiChannelSeries noisy_acquisition(std::uint64_t seed = 5) {
  auto controller = make_controller(seed);
  sim::AcquisitionConfig config;
  config.carriers_hz = {5.0e5, 2.0e6};
  config.noise_sigma = 5e-5;
  config.drift.slow_amplitude = 0.002;
  config.drift.random_walk_sigma = 1e-6;
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 250.0}};
  const auto control = controller.begin_session(20.0);
  return sim::acquire(sample, sim::ChannelConfig{}, sim::standard_design(9),
                      config, control, 20.0, seed)
      .signals;
}

TEST(PhoneRelay, PackedNoisyUploadMatchesRawAndBeatsWholeSeries) {
  const auto series = noisy_acquisition();
  ASSERT_EQ(series.channels.size(), 2u);
  ASSERT_EQ(series.channels[0].size(), 9000u);
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  RelayConfig raw_config;
  raw_config.compress_uploads = false;
  PhoneRelay packed, raw(raw_config);
  const auto a = packed.relay_analysis(series, 1, server, kMacKey);
  const auto b = raw.relay_analysis(series, 2, server, kMacKey);
  ASSERT_EQ(a.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_GT(packed.timing().compression_s, 0.0);
  // At least 10 % smaller than the whole series in one MSZ1 container.
  const std::size_t whole =
      compress::compress(net::serialize_series(series)).size();
  EXPECT_LE(packed.last_upload_bytes() * 10, whole * 9);
}

TEST(PhoneRelay, PackedAuthPassDecidesLikeRawOne) {
  const auto series = noisy_acquisition(6);
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  RelayConfig raw_config;
  raw_config.compress_uploads = false;
  PhoneRelay packed, raw(raw_config);
  const auto a = packed.relay_auth(series, 3, 1.0, server, kMacKey, 20.0);
  const auto b = raw.relay_auth(series, 4, 1.0, server, kMacKey, 20.0);
  ASSERT_EQ(a.type, net::MessageType::kAuthDecision);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_LT(packed.last_upload_bytes(), raw.last_upload_bytes());
}

TEST(PhoneRelay, WholeSeriesMsz1UploadStillDecodes) {
  // Relays built before byte planes compress the whole serialized
  // series into one MSZ1 container; the cloud still accepts that form.
  const auto series = noisy_acquisition();
  auto server = make_server();
  testkit::enroll(server, RelayConfig{}.device_id);
  RelayConfig raw_config;
  raw_config.compress_uploads = false;
  PhoneRelay raw(raw_config);
  const auto reference = raw.relay_analysis(series, 1, server, kMacKey);

  net::SignalUploadPayload upload;
  upload.compressed = true;
  upload.data = compress::compress(net::serialize_series(series));
  const auto response = server.handle(
      net::make_envelope(net::MessageType::kSignalUpload, 2,
                         RelayConfig{}.device_id, upload.serialize(), kMacKey));
  ASSERT_EQ(response.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(response.payload, reference.payload);
}

TEST(PhoneRelay, Profiles) {
  EXPECT_DOUBLE_EQ(computer_profile().slowdown, 1.0);
  EXPECT_GT(nexus5_profile().slowdown, 3.0);
  EXPECT_NEAR(nexus5_profile().scale(0.452), 1.554, 0.06);
}

}  // namespace
}  // namespace medsen::phone
