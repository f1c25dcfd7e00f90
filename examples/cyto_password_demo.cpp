// Cyto-coded passwords end to end: a clinic enrolls patients by issuing
// bead-coded pipette kits; a patient authenticates by running their
// bead-mixed sample with encryption off; the cloud classifies the bead
// peaks, matches the census against the enrollment database, stores the
// (encrypted) result under the identifier, and a practitioner later
// fetches the history with the same code. Includes the integrity check
// from Section V and the alphabet's collision analysis.

#include <cstdio>

#include "auth/collision.h"
#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "enroll_device.h"
#include "phone/relay.h"

using namespace medsen;

int main() {
  auth::CytoAlphabet alphabet;
  alphabet.validate();
  std::printf("alphabet: %zu bead types x %zu levels -> %llu identifiers "
              "(%.1f bits)\n",
              alphabet.characters(), alphabet.levels(),
              static_cast<unsigned long long>(alphabet.space_size()),
              alphabet.entropy_bits());

  auth::CollisionModel model;
  model.volume_ul = 0.8;
  const auto analysis = auth::analyze_collisions(alphabet, model);
  std::printf("per-character confusion at %.1f uL: %.2e; code error: "
              "%.2e; effective entropy %.1f bits\n",
              model.volume_ul, analysis.per_character_confusion,
              analysis.code_error_probability,
              analysis.effective_entropy_bits);
  std::printf("collision among 10 random enrollments: %.3f\n\n",
              auth::birthday_collision_probability(alphabet, 10));

  // --- Enrollment: the clinic issues Alice a bead-coded pipette kit.
  // The service refuses legacy static-key traffic: the bead census rides
  // a negotiated session like any other command.
  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{}, alphabet,
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  crypto::ChaChaRng clinic_rng(99);
  const auth::CytoCode alice_code =
      server.enrollments().enroll_random("alice", clinic_rng);
  std::printf("enrolled alice with cyto-code %s\n",
              alice_code.to_string().c_str());

  // --- Authentication pass: bead mixture + blood, encryption off.
  const auto design = sim::standard_design(9);
  core::KeyParams key_params;
  key_params.num_electrodes = design.num_outputs;
  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 5);
  const double duration_s = 600.0;
  (void)controller.begin_plaintext_session(duration_s);

  sim::SampleSpec sample;
  sample.components = auth::encode_mixture(alphabet, alice_code);
  sample.components.push_back({sim::ParticleType::kBloodCell, 420.0});
  sim::ChannelConfig channel;
  core::SensorEncryptor encryptor(design, channel, sim::AcquisitionConfig{});
  const auto acquisition = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration_s, 55);

  phone::PhoneRelay relay;
  const auto mac_key = examples::enroll_device(
      server, relay.config().device_id, std::vector<std::uint8_t>(16, 0x07));
  controller.enable_session_crypto(relay.config().device_id, mac_key);
  if (!relay.establish_session(controller, 1, server)) {
    std::printf("session handshake failed\n");
    return 1;
  }
  const auto decision_envelope = relay.relay_auth(
      acquisition.signals, 0, controller.session_volume_ul(), server, {},
      duration_s, controller.session_crypto());
  const auto decision =
      net::AuthDecisionPayload::deserialize(decision_envelope.payload);
  std::printf("authentication: %s (matched '%s', distance %.3f)\n",
              decision.authenticated ? "ACCEPTED" : "REJECTED",
              decision.user_id.c_str(), decision.distance);

  // --- Store a diagnostic record under the identifier; fetch it back.
  server.store_result(alice_code,
                      {/*session_id=*/1, {0xE5, 0xC0, 0xDE}});
  const auto fetched = server.records().latest(alice_code);
  std::printf("record store: %zu identifier(s); fetched session %llu "
              "(%zu-byte encrypted blob)\n",
              server.records().identifier_count(),
              static_cast<unsigned long long>(fetched->session_id),
              fetched->encrypted_result.size());

  // --- An impostor with a guessed code is rejected.
  auth::CytoCode guess;
  guess.levels = {1, 1};
  if (guess == alice_code) guess.levels = {2, 1};
  sim::SampleSpec impostor;
  impostor.components = auth::encode_mixture(alphabet, guess);
  impostor.components.push_back({sim::ParticleType::kBloodCell, 380.0});
  (void)controller.begin_plaintext_session(duration_s);
  const auto impostor_acq = encryptor.acquire(
      impostor, controller.session_key_schedule_for_testing(), duration_s,
      77);
  const auto impostor_decision = net::AuthDecisionPayload::deserialize(
      relay.relay_auth(impostor_acq.signals, 0,
                       controller.session_volume_ul(), server, {},
                       duration_s, controller.session_crypto())
          .payload);
  std::printf("impostor with code %s: %s\n", guess.to_string().c_str(),
              impostor_decision.authenticated
                  ? "ACCEPTED (uh oh)"
                  : (impostor_decision.user_id.empty()
                         ? "REJECTED"
                         : "REJECTED (nearest user but out of margin)"));
  return 0;
}
