// The complete MedSen assay of the paper's Figs. 1+2, end to end:
//
//   1. capture chamber: antibody pre-concentration of the target cells
//   2. pipette kit: mix in the patient's cyto-coded password beads
//   3. authentication pass (encryption off): cloud matches the bead census
//   4. diagnostic pass (in-sensor encryption on): cloud counts ciphertext
//      peaks, controller decodes, result stored under the identifier
//   5. practitioner access: unwrap the escrowed session key and decode
//      the stored ciphertext report independently
//   6. restart: a fresh server recovers the sealed, journaled state
//
// Every component is the production path — no test shortcuts.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

#include "cloud/durability.h"
#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "core/escrow.h"
#include "enroll_device.h"
#include "phone/relay.h"
#include "sim/capture.h"

using namespace medsen;

int main() {
  const auto design = sim::standard_design(9);
  core::KeyParams key_params;
  key_params.num_electrodes = design.num_outputs;
  key_params.gain_min = 0.8;
  key_params.gain_max = 1.6;
  sim::ChannelConfig channel;
  sim::AcquisitionConfig acq;
  acq.carriers_hz = {5.0e5, 8.0e5, 2.0e6, 2.5e6};

  auth::CytoAlphabet alphabet;
  // Production posture: the legacy static-key plane is off, so both the
  // auth pass and the diagnostic pass ride one negotiated session.
  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  const auto make_server = [&] {
    return std::make_unique<cloud::CloudServer>(
        cloud::AnalysisConfig{}, alphabet,
        auth::ParticleClassifier::train({acq.carriers_hz, 300, 0.06, 7}),
        auth::VerifierConfig{}, nullptr, service);
  };
  // The cloud's state lives in a sealed write-ahead journal: every
  // mutation below is on disk before it is acknowledged. The directory is
  // named after this process, so concurrent runs keep apart.
  const auto state_dir =
      (std::filesystem::temp_directory_path() /
       ("medsen_full_assay_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(state_dir);
  cloud::DurabilityConfig durability;
  durability.dir = state_dir;
  durability.storage_key = std::vector<std::uint8_t>(16, 0x5E);
  auto durable = std::make_unique<cloud::DurableState>(durability);
  auto server_process = make_server();
  auto& server = *server_process;
  server.attach_durability(*durable);
  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 404);
  phone::PhoneRelay relay;
  const auto mac_key = examples::enroll_device(
      server, relay.config().device_id, std::vector<std::uint8_t>(16, 0xAB));
  controller.enable_session_crypto(relay.config().device_id, mac_key);
  if (!relay.establish_session(controller, 1, server)) {
    std::printf("session handshake failed\n");
    return 1;
  }
  const std::vector<std::uint8_t> practitioner_secret = {0x50, 0x4C};

  // --- 0. Enrollment (done once at the clinic).
  crypto::ChaChaRng clinic_rng(1);
  const auto code = auth::random_code(alphabet, clinic_rng);
  server.enroll_user("patient-007", code);
  std::printf("[clinic] issued pipette kit with cyto-code %s\n",
              code.to_string().c_str());

  // --- 1. Capture chamber enriches the diagnostic target.
  sim::SampleSpec whole_blood;
  whole_blood.components = {{sim::ParticleType::kBloodCell, 350.0}};
  sim::CaptureChamberConfig chamber;
  chamber.concentration_factor = 2.0;
  const auto captured = sim::capture_release(whole_blood, chamber);
  std::printf("[sensor] capture chamber: %.0f -> %.0f cells/uL (%.1fx)\n",
              350.0,
              captured.enriched.expected_count(
                  sim::ParticleType::kBloodCell, 1.0),
              sim::enrichment_factor(whole_blood, captured,
                                     sim::ParticleType::kBloodCell));

  // --- 2. Mix in the password beads.
  sim::SampleSpec assay_sample = captured.enriched;
  for (const auto& component : auth::encode_mixture(alphabet, code))
    assay_sample.components.push_back(component);

  // --- 3. Authentication pass, encryption off.
  const double auth_duration = 420.0;
  (void)controller.begin_plaintext_session(auth_duration);
  core::SensorEncryptor encryptor(design, channel, acq);
  const auto auth_acq = encryptor.acquire(
      assay_sample, controller.session_key_schedule_for_testing(),
      auth_duration, 11);
  const auto decision = net::AuthDecisionPayload::deserialize(
      relay.relay_auth(auth_acq.signals, 0,
                       controller.session_volume_ul(), server, {},
                       auth_duration, controller.session_crypto())
          .payload);
  std::printf("[cloud ] authentication: %s as '%s' (distance %.2f)\n",
              decision.authenticated ? "ACCEPTED" : "REJECTED",
              decision.user_id.c_str(), decision.distance);
  if (!decision.authenticated) return 1;

  // --- 4. Encrypted diagnostic pass. The diagnostic aliquot is diluted
  // 4x so the multiplied peak trains stay within the counter's dynamic
  // range at this bead load (standard practice; the count scales back).
  const double dilution = 0.25;
  sim::SampleSpec dx_sample = assay_sample;
  for (auto& component : dx_sample.components)
    component.concentration_per_ul *= dilution;
  const double dx_duration = 240.0;
  (void)controller.begin_session(dx_duration);
  const auto dx_acq = encryptor.acquire(
      dx_sample, controller.session_key_schedule_for_testing(),
      dx_duration, 13);
  const auto response = relay.relay_analysis(dx_acq.signals, 0, server, {},
                                             controller.session_crypto());
  const auto report = core::PeakReport::deserialize(response.payload);
  // The decoded peaks include the password beads. The controller
  // classifies each gain-corrected peak by its multi-frequency shape
  // (the frequency-ratio features cancel any residual gain error) and
  // counts only the blood cells, scaled back by the multiplication
  // factor and dilution.
  const auto decoded_all = controller.decrypt(report);
  const double volume = controller.session_volume_ul();
  const auto classifier = auth::ParticleClassifier::train(
      {acq.carriers_hz, 300, 0.06, 7});
  double cell_peaks = 0.0;
  for (const auto& peak : decoded_all.peaks)
    if (classifier.classify(peak.amplitudes) ==
        sim::ParticleType::kBloodCell)
      cell_peaks += 1.0;
  // Cells' share of ciphertext peaks, applied to the decoded count.
  const double cell_fraction =
      decoded_all.peaks.empty()
          ? 0.0
          : cell_peaks / static_cast<double>(decoded_all.peaks.size());
  const double cells_only = decoded_all.estimated_count * cell_fraction;
  // Undo the dilution and the capture-chamber enrichment to report the
  // patient's whole-blood concentration.
  const double enrichment = sim::enrichment_factor(
      whole_blood, captured, sim::ParticleType::kBloodCell);
  const auto diagnosis = core::diagnose(
      core::DiagnosticProfile::cd4_staging(),
      cells_only / dilution / enrichment, volume);
  std::printf("[sensor] decoded %.0f particles/uL (%.0f%% classified as "
              "cells) -> %.0f cells/uL whole blood (true: 350) -> %s%s\n",
              decoded_all.estimated_count / volume, cell_fraction * 100.0,
              diagnosis.concentration_per_ul, diagnosis.condition.c_str(),
              diagnosis.alert ? "  [ALERT]" : "");

  // The cloud stores the ciphertext report under the identifier.
  server.store_result(code, {2, response.payload});

  // --- 5. Practitioner fetches and decodes with the escrowed key.
  const auto package = core::escrow_key_schedule(
      controller.session_key_schedule_for_testing(), practitioner_secret,
      999);
  const auto stored = server.records().latest(code);
  const auto stored_report =
      core::PeakReport::deserialize(stored->encrypted_result);
  const auto decoded = core::practitioner_decrypt(
      package, practitioner_secret, stored_report, design, dx_duration);
  std::printf("[doctor] independent decode of stored record: %.1f cells "
              "(sensor decoded %.1f)\n",
              decoded.estimated_count, diagnosis.estimated_count);

  // --- 6. Restart: a fresh server recovers the journaled state from
  // the same directory. Negotiated sessions die with the process; the
  // registry, enrollment and stored record survive.
  server_process.reset();  // the server first: it points at its journal
  durable.reset();
  {
    cloud::DurableState reopened(durability);
    auto restarted = make_server();
    restarted->attach_durability(reopened);
    std::printf("[cloud ] state persisted and reloaded: %zu record(s) on "
                "disk, patient %s, %zu device(s), %zu live session(s)\n",
                restarted->records().record_count(),
                restarted->enrollments().lookup(code).value_or("?").c_str(),
                restarted->devices().size(),
                restarted->devices().active_sessions());
  }
  std::filesystem::remove_all(state_dir);
  return 0;
}
