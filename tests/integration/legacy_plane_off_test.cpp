// The allow_legacy_plane=false posture end to end: with the legacy
// static-key plane disabled, counter-0 command traffic — even correctly
// MAC'd under the device's long-term key — must be refused with
// kAuthRequired, while the handshake itself (the one message that
// legitimately rides counter 0) and all session-plane traffic work
// unchanged through the production PhoneRelay path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cloud/server.h"
#include "core/controller.h"
#include "phone/relay.h"
#include "test_devices.h"

namespace medsen {
namespace {

util::MultiChannelSeries one_cell_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 9000; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    const double z = (t - 5.0) / 0.008;
    double v = 1.0 - 0.01 * std::exp(-0.5 * z * z);
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

std::vector<std::uint8_t> upload_payload(
    const util::MultiChannelSeries& series) {
  net::SignalUploadPayload upload;
  upload.compressed = false;
  upload.sample_rate_hz = 450.0;
  upload.data = net::serialize_series(series);
  return upload.serialize();
}

cloud::CloudServer make_locked_server() {
  cloud::ServiceConfig service;
  service.quality_gate = false;
  service.allow_legacy_plane = false;
  return cloud::CloudServer(cloud::AnalysisConfig{}, auth::CytoAlphabet{},
                            auth::ParticleClassifier::train({}),
                            auth::VerifierConfig{}, nullptr, service);
}

// A correctly MAC'd counter-0 command under the long-term key is
// refused: possession of the long-term key alone no longer moves data.
TEST(LegacyPlaneOff, CounterZeroCommandRefused) {
  auto server = make_locked_server();
  const auto mac_key = testkit::enroll(server, 7);

  const auto payload = upload_payload(one_cell_series());
  const auto upload = net::make_envelope(net::MessageType::kSignalUpload,
                                         /*session=*/1, /*device=*/7,
                                         payload, mac_key);
  const auto response = server.handle(upload);
  ASSERT_EQ(response.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(response.payload).code,
            net::ErrorCode::kAuthRequired);

  // The auth pass is a command too — same refusal.
  net::AuthPassPayload pass;
  pass.upload.compressed = false;
  pass.upload.sample_rate_hz = 450.0;
  pass.upload.data = net::serialize_series(one_cell_series());
  pass.volume_ul = 1.0;
  const auto auth = net::make_envelope(net::MessageType::kAuthPass,
                                       /*session=*/2, /*device=*/7,
                                       pass.serialize(), mac_key);
  const auto auth_response = server.handle(auth);
  ASSERT_EQ(auth_response.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(auth_response.payload).code,
            net::ErrorCode::kAuthRequired);
}

// The production path still works: handshake through PhoneRelay, then
// session-plane commands with advancing counters — while the very same
// legacy envelope keeps bouncing off the closed plane.
TEST(LegacyPlaneOff, SessionTrafficSucceedsEndToEnd) {
  auto server = make_locked_server();
  const auto design = sim::standard_design(9);
  core::KeyParams params;
  params.num_electrodes = 9;
  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(), 11);
  phone::PhoneRelay relay;
  const auto mac_key = testkit::enroll(server, relay.config().device_id);
  controller.enable_session_crypto(relay.config().device_id, mac_key);

  // The handshake is the one exchange that legitimately rides counter 0.
  ASSERT_TRUE(relay.establish_session(controller, 500, server));

  const auto series = one_cell_series();
  const auto first = relay.relay_analysis(series, 0, server, {},
                                          controller.session_crypto());
  ASSERT_EQ(first.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(first.counter, 1u);
  const auto second = relay.relay_analysis(series, 0, server, {},
                                           controller.session_crypto());
  ASSERT_EQ(second.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(second.counter, 2u);

  // A live session does not reopen the legacy plane for the device.
  const auto legacy = server.handle(net::make_envelope(
      net::MessageType::kSignalUpload, /*session=*/9,
      relay.config().device_id, upload_payload(series), mac_key));
  ASSERT_EQ(legacy.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(legacy.payload).code,
            net::ErrorCode::kAuthRequired);

  // And the refusal did not disturb the negotiated session.
  const auto third = relay.relay_analysis(series, 0, server, {},
                                          controller.session_crypto());
  ASSERT_EQ(third.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(third.counter, 3u);
}

// Back-compat guard: the default ServiceConfig keeps the legacy plane
// open so mixed fleets can upgrade incrementally.
TEST(LegacyPlaneOff, DefaultConfigStillServesLegacyTraffic) {
  cloud::ServiceConfig service;
  service.quality_gate = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  const auto mac_key = testkit::enroll(server, 3);
  const auto response = server.handle(net::make_envelope(
      net::MessageType::kSignalUpload, /*session=*/1, /*device=*/3,
      upload_payload(one_cell_series()), mac_key));
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
}

}  // namespace
}  // namespace medsen
