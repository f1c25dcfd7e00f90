// End-to-end integration: controller -> encrypted acquisition -> phone
// relay -> cloud analysis -> controller decode -> diagnosis, plus the
// cyto-coded authentication pass. This is the full MedSen protocol of
// paper Fig. 2 running over the simulated substrate.

#include <gtest/gtest.h>

#include <cmath>

#include "auth/verifier.h"
#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "phone/relay.h"
#include "test_devices.h"

namespace medsen {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);

struct Testbed {
  sim::ElectrodeArrayDesign design = sim::standard_design(9);
  sim::ChannelConfig channel;
  sim::AcquisitionConfig acquisition;
  core::KeyParams key_params;

  Testbed() {
    channel.loss.enabled = false;
    acquisition.carriers_hz = {5.0e5, 2.0e6};
    acquisition.noise_sigma = 5e-5;
    acquisition.drift.slow_amplitude = 0.002;
    acquisition.drift.random_walk_sigma = 1e-6;
    key_params.num_electrodes = 9;
    key_params.period_s = 4.0;
    key_params.gain_min = 0.8;
    key_params.gain_max = 1.6;
  }
};

TEST(Pipeline, EncryptedDiagnosisEndToEnd) {
  Testbed bed;
  core::Controller controller(bed.key_params, bed.design,
                              core::DiagnosticProfile::cd4_staging(), 1);
  core::SensorEncryptor encryptor(bed.design, bed.channel, bed.acquisition);
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  phone::PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);

  const double duration = 60.0;
  (void)controller.begin_session(duration);

  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBead780, 150.0}};
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration, 77);

  const auto response =
      relay.relay_analysis(enc.signals, 1, server, kMacKey);
  ASSERT_TRUE(net::verify_envelope(response, kMacKey));
  const auto report = core::PeakReport::deserialize(response.payload);

  const core::Diagnosis diagnosis = controller.conclude(report);
  const double truth = static_cast<double>(enc.truth.total_particles());
  EXPECT_NEAR(diagnosis.estimated_count, truth,
              std::max(3.0, truth * 0.15));
  EXPECT_GT(diagnosis.volume_ul, 0.0);
}

TEST(Pipeline, CloudSeesOnlyInflatedCiphertext) {
  Testbed bed;
  bed.key_params.min_active_electrodes = 3;
  core::Controller controller(bed.key_params, bed.design,
                              core::DiagnosticProfile::cd4_staging(), 2);
  core::SensorEncryptor encryptor(bed.design, bed.channel, bed.acquisition);
  cloud::AnalysisService service;

  (void)controller.begin_session(30.0);
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBead780, 150.0}};
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), 30.0, 5);
  const auto report = service.analyze(enc.signals);
  EXPECT_GT(report.reference_peak_count(),
            2 * enc.truth.total_particles());
}

TEST(Pipeline, AuthenticationPassIdentifiesUser) {
  Testbed bed;
  auth::CytoAlphabet alphabet;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{}, alphabet,
                                   auth::ParticleClassifier::train({}));
  auth::CytoCode alice;
  alice.levels = {2, 1};  // 300/uL small beads, 150/uL large beads
  server.enrollments().enroll("alice", alice);

  // Plaintext (encryption-off) pass with Alice's bead mixture in PBS.
  core::Controller controller(bed.key_params, bed.design,
                              core::DiagnosticProfile::cd4_staging(), 3);
  const double duration = 120.0;
  (void)controller.begin_plaintext_session(duration);

  sim::SampleSpec sample;
  sample.components = auth::encode_mixture(alphabet, alice);
  core::SensorEncryptor encryptor(bed.design, bed.channel, bed.acquisition);
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration, 9);

  phone::PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  const double volume = controller.session_volume_ul();
  const auto response =
      relay.relay_auth(enc.signals, 2, volume, server, kMacKey, duration);
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  EXPECT_TRUE(decision.authenticated);
  EXPECT_EQ(decision.user_id, "alice");
}

TEST(Pipeline, WrongBeadMixtureRejected) {
  Testbed bed;
  auth::CytoAlphabet alphabet;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{}, alphabet,
                                   auth::ParticleClassifier::train({}));
  auth::CytoCode alice;
  alice.levels = {4, 4};
  server.enrollments().enroll("alice", alice);

  core::Controller controller(bed.key_params, bed.design,
                              core::DiagnosticProfile::cd4_staging(), 4);
  (void)controller.begin_plaintext_session(60.0);

  // An impostor submits a blank sample (no beads).
  sim::SampleSpec blank;
  blank.components = {{sim::ParticleType::kBloodCell, 100.0}};
  core::SensorEncryptor encryptor(bed.design, bed.channel, bed.acquisition);
  const auto enc = encryptor.acquire(
      blank, controller.session_key_schedule_for_testing(), 60.0, 10);

  phone::PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  const auto response = relay.relay_auth(
      enc.signals, 3, controller.session_volume_ul(), server, kMacKey,
      60.0);
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  EXPECT_FALSE(decision.authenticated);
}

TEST(Pipeline, StoredResultsRetrievableByIdentifier) {
  auth::CytoCode code;
  code.levels = {1, 3};
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  server.store_result(code, {42, {0xDE, 0xAD}});
  const auto latest = server.records().latest(code);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->session_id, 42u);
}

}  // namespace
}  // namespace medsen
