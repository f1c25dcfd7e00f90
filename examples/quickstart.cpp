// Quickstart: one encrypted point-of-care diagnostic round trip.
//
//   sensor (TCB) --encrypted signal--> phone --upload--> cloud
//   cloud --peak report--> phone --> sensor --decode--> diagnosis
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "enroll_device.h"
#include "phone/relay.h"

using namespace medsen;

int main() {
  // 1. Describe the hardware: the 9-output electrode array and channel.
  const sim::ElectrodeArrayDesign design = sim::standard_design(9);
  sim::ChannelConfig channel;  // 30x20 um pore, defaults from the paper

  // 2. The trusted computing base: key generation + decode live here.
  core::KeyParams key_params;
  key_params.num_electrodes = design.num_outputs;
  // Gain range narrowed from the paper's full 4x swing so the weakest
  // gain still keeps every cell above the detection threshold (the paper
  // notes the range is tuned to "security and sensor precision
  // requirements", Section VI-B).
  key_params.gain_min = 0.8;
  key_params.gain_max = 1.6;
  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(),
                              /*entropy_seed=*/20260707);

  // 3. Untrusted parties: the phone relay and the cloud server. The
  //    service runs with the legacy static-key plane disabled: every
  //    command must ride a negotiated session, so a stolen long-term MAC
  //    key alone cannot replay or forge traffic.
  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  phone::PhoneRelay relay;
  relay.set_progress_callback(
      [](const std::string& msg) { std::printf("  [app] %s\n", msg.c_str()); });
  // Enroll this dongle with the service (the cloud stores only its id),
  // arm the controller's session crypto with the key diversified from
  // the service's master key at personalization, and negotiate derived
  // session keys before any diagnostic traffic flows.
  const auto mac_key = examples::enroll_device(
      server, relay.config().device_id, std::vector<std::uint8_t>(16, 0x42));
  controller.enable_session_crypto(relay.config().device_id, mac_key);
  if (!relay.establish_session(controller, /*session=*/1, server)) {
    std::printf("session handshake failed\n");
    return 1;
  }

  // 4. A patient's blood sample (simulated; CD4-like cells at 450/uL).
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 450.0}};

  // 5. Acquire WITH in-sensor encryption: the key schedule drives the
  //    multiplexer, gains and pump; the signal leaves already encrypted.
  const double duration_s = 30.0;
  (void)controller.begin_session(duration_s);
  sim::AcquisitionConfig acq_config;
  acq_config.carriers_hz = {5.0e5, 2.0e6};  // counting + classification
  core::SensorEncryptor encryptor(design, channel, acq_config);
  const auto acquisition = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration_s,
      /*seed=*/7);
  std::printf("acquired %zu samples across %zu carriers (%zu particles "
              "passed the pore)\n",
              acquisition.signals.total_samples(),
              acquisition.signals.channel_count(),
              acquisition.truth.total_particles());

  // 6. Phone relays to the cloud over the negotiated session (the
  //    session id and MAC key come from the handshake; the legacy
  //    arguments are ignored when session crypto is active).
  const auto response =
      relay.relay_analysis(acquisition.signals, /*session=*/0, server, {},
                           controller.session_crypto());
  const auto report = core::PeakReport::deserialize(response.payload);
  std::printf("cloud saw %zu encrypted peaks (true count: %zu)\n",
              report.reference_peak_count(),
              acquisition.truth.total_particles());

  // 7. Only the controller can decode the report into a diagnosis.
  const core::Diagnosis diagnosis = controller.conclude(report);
  std::printf("decoded count: %.1f cells in %.3f uL -> %.0f cells/uL\n",
              diagnosis.estimated_count, diagnosis.volume_ul,
              diagnosis.concentration_per_ul);
  std::printf("diagnosis: %s%s\n", diagnosis.condition.c_str(),
              diagnosis.alert ? "  [ALERT]" : "");
  std::printf("processing latency: %.0f ms (paper reports ~200 ms per window)\n",
              relay.timing().total_s() * 1e3);
  return 0;
}
