// Threaded integration: sensor/controller, phone and cloud run as
// concurrent components exchanging framed envelopes over in-process
// message queues — the shape of the prototype's USB daemon + Android app
// + cloud service deployment.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "net/channel.h"
#include "net/frame.h"
#include "test_devices.h"

namespace medsen {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);

TEST(Threaded, FullProtocolOverMessageQueues) {
  net::DuplexChannel sensor_phone;  // a = sensor, b = phone
  net::DuplexChannel phone_cloud;   // a = phone, b = cloud

  // --- Sensor thread: acquire, send upload, await result, decode.
  core::KeyParams key_params;
  key_params.num_electrodes = 9;
  key_params.period_s = 4.0;
  key_params.gain_min = 0.8;
  key_params.gain_max = 1.6;
  const auto design = sim::standard_design(9);

  double decoded_count = -1.0;
  std::size_t true_count = 0;

  std::thread sensor([&] {
    core::Controller controller(key_params, design,
                                core::DiagnosticProfile::cd4_staging(), 21);
    (void)controller.begin_session(30.0);

    sim::ChannelConfig channel;
    channel.loss.enabled = false;
    sim::AcquisitionConfig acquisition;
    acquisition.carriers_hz = {5.0e5};
    acquisition.noise_sigma = 5e-5;
    acquisition.drift.slow_amplitude = 0.002;
    acquisition.drift.random_walk_sigma = 1e-6;
    core::SensorEncryptor encryptor(design, channel, acquisition);
    sim::SampleSpec sample;
    sample.components = {{sim::ParticleType::kBead780, 150.0}};
    const auto enc = encryptor.acquire(
        sample, controller.session_key_schedule_for_testing(), 30.0, 31);
    true_count = enc.truth.total_particles();

    net::SignalUploadPayload payload;
    payload.sample_rate_hz = 450.0;
    payload.data = net::serialize_series(enc.signals);
    const auto envelope = net::make_envelope(
        net::MessageType::kSignalUpload, 7, 1, payload.serialize(), kMacKey);
    sensor_phone.a_to_b.send(net::frame_encode(envelope.serialize()));

    const auto frame = sensor_phone.b_to_a.receive();
    ASSERT_TRUE(frame.has_value());
    const auto response =
        net::Envelope::deserialize(net::frame_decode(*frame));
    ASSERT_TRUE(net::verify_envelope(response, kMacKey));
    const auto report = core::PeakReport::deserialize(response.payload);
    decoded_count = controller.decrypt(report).estimated_count;
  });

  // --- Phone thread: dumb relay both ways.
  std::thread phone([&] {
    const auto up = sensor_phone.a_to_b.receive();
    ASSERT_TRUE(up.has_value());
    phone_cloud.a_to_b.send(*up);
    const auto down = phone_cloud.b_to_a.receive();
    ASSERT_TRUE(down.has_value());
    sensor_phone.b_to_a.send(*down);
  });

  // --- Cloud thread: analyze and respond.
  std::thread cloud_thread([&] {
    auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                     auth::CytoAlphabet{},
                                     auth::ParticleClassifier::train({}));
    testkit::enroll(server, 1);
    const auto frame = phone_cloud.a_to_b.receive();
    ASSERT_TRUE(frame.has_value());
    const auto request =
        net::Envelope::deserialize(net::frame_decode(*frame));
    const auto response = server.handle(request);
    phone_cloud.b_to_a.send(net::frame_encode(response.serialize()));
  });

  sensor.join();
  phone.join();
  cloud_thread.join();

  ASSERT_GT(true_count, 0u);
  EXPECT_NEAR(decoded_count, static_cast<double>(true_count),
              std::max(3.0, static_cast<double>(true_count) * 0.15));
}

TEST(Threaded, PhoneCannotForgeWithoutKey) {
  // A malicious phone altering the upload is detected by the cloud's MAC
  // check — the relay is outside the TCB.
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  testkit::enroll(server, 1);
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(1000, 1.0));
  net::SignalUploadPayload payload;
  payload.data = net::serialize_series(series);
  auto envelope = net::make_envelope(net::MessageType::kSignalUpload, 1, 1,
                                     payload.serialize(), kMacKey);
  envelope.payload[envelope.payload.size() / 2] ^= 0x01;  // phone tampers
  const auto response = server.handle(envelope);
  ASSERT_EQ(response.type, net::MessageType::kError);
  const auto error = net::ErrorPayload::deserialize(response.payload);
  EXPECT_EQ(error.code, net::ErrorCode::kBadMac);
}

}  // namespace
}  // namespace medsen
