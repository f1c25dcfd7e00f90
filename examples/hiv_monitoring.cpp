// HIV progression monitoring: the paper's motivating workload. CD4+
// T-cell count is "the strongest predictor of HIV progression"; elderly
// or chronic patients run the test at home daily. This example runs three
// simulated patients at different disease stages through the full
// encrypted pipeline and prints their staging, plus a longitudinal series
// for one patient whose count declines over visits.

#include <cstdio>
#include <cstdlib>

#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "enroll_device.h"
#include "phone/relay.h"

using namespace medsen;

namespace {

// One at-home test. The device is enrolled once (in main); each
// controller arms session crypto with the shared long-term key and
// handshakes on its first visit, so repeat visits ride the same
// negotiated session with advancing command counters.
core::Diagnosis run_visit(core::Controller& controller,
                          cloud::CloudServer& server,
                          phone::PhoneRelay& relay,
                          const std::vector<std::uint8_t>& mac_key,
                          double cd4_per_ul, std::uint64_t seed) {
  const auto design = sim::standard_design(9);
  sim::ChannelConfig channel;
  const double duration_s = 180.0;  // ~0.24 uL so counting noise is small
  (void)controller.begin_session(duration_s);

  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, cd4_per_ul}};
  sim::AcquisitionConfig acq_config;
  acq_config.carriers_hz = {5.0e5, 2.0e6};
  core::SensorEncryptor encryptor(design, channel, acq_config);
  const auto acquisition = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration_s,
      seed);

  if (controller.session_crypto() == nullptr)
    controller.enable_session_crypto(relay.config().device_id, mac_key);
  if (!controller.session_crypto()->active() &&
      !relay.establish_session(controller, seed, server)) {
    std::fprintf(stderr, "session handshake failed\n");
    std::exit(1);
  }
  const auto response = relay.relay_analysis(acquisition.signals, 0, server,
                                             {}, controller.session_crypto());
  return controller.conclude(
      core::PeakReport::deserialize(response.payload));
}

}  // namespace

int main() {
  const auto design = sim::standard_design(9);
  core::KeyParams key_params;
  key_params.num_electrodes = design.num_outputs;
  key_params.gain_min = 0.8;  // precision-safe gain range (Section VI-B)
  key_params.gain_max = 1.6;
  // Legacy static-key traffic is refused: every visit authenticates
  // through a negotiated session.
  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  phone::PhoneRelay relay;
  const auto mac_key = examples::enroll_device(
      server, relay.config().device_id, std::vector<std::uint8_t>(16, 0x01));

  std::printf("=== cross-sectional screening ===\n");
  struct PatientCase {
    const char* name;
    double cd4_per_ul;
  };
  const PatientCase cases[] = {
      {"patient A (healthy)", 900.0},
      {"patient B (monitor)", 350.0},
      {"patient C (severe)", 120.0},
  };
  std::uint64_t seed = 100;
  for (const auto& patient : cases) {
    core::Controller controller(key_params, design,
                                core::DiagnosticProfile::cd4_staging(),
                                seed * 13);
    const auto diagnosis = run_visit(controller, server, relay, mac_key,
                                     patient.cd4_per_ul, seed++);
    std::printf("%-22s true %4.0f/uL -> measured %6.0f/uL : %s%s\n",
                patient.name, patient.cd4_per_ul,
                diagnosis.concentration_per_ul, diagnosis.condition.c_str(),
                diagnosis.alert ? "  [ALERT]" : "");
  }

  std::printf("\n=== longitudinal monitoring (one patient, 6 visits) ===\n");
  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 777);
  std::printf("visit,true_cd4_per_ul,measured_per_ul,alert\n");
  double cd4 = 650.0;
  for (int visit = 0; visit < 6; ++visit) {
    const auto diagnosis =
        run_visit(controller, server, relay, mac_key, cd4, 300 + visit);
    std::printf("%d,%.0f,%.0f,%s\n", visit, cd4,
                diagnosis.concentration_per_ul,
                diagnosis.alert ? "yes" : "no");
    cd4 *= 0.80;  // untreated decline between visits
  }
  std::printf("\nEach visit used a fresh one-time key schedule; the cloud "
              "never observed a true count.\n");
  return 0;
}
