// Lossy uplink demo: the same encrypted diagnostic round trip as
// quickstart, but over a 4G link that drops, corrupts, duplicates, and
// reorders datagrams. The reliable transport (chunked ARQ with CRC
// framing, ACKs, and exponential backoff) delivers a bit-identical peak
// report; when the link is a total black hole, the phone degrades
// gracefully to on-device analysis instead of failing the test.
//
// Build & run:  cmake --build build && ./build/examples/lossy_uplink_demo

#include <cmath>
#include <cstdio>

#include "cloud/server.h"
#include "core/controller.h"
#include "enroll_device.h"
#include "phone/relay.h"

using namespace medsen;

namespace {

// A clean acquisition with three cell transits (no crypto, to keep the
// focus on the transport).
util::MultiChannelSeries three_cell_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 9000; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (int d = 0; d < 3; ++d) {
      const double z = (t - (4.0 + 3.0 * d)) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

phone::RelayConfig lossy_config(double drop_rate) {
  phone::RelayConfig config;
  config.reliable_transport = true;
  config.uplink_faults.drop_rate = drop_rate;
  config.uplink_faults.corrupt_rate = 0.02;
  config.uplink_faults.duplicate_rate = 0.02;
  config.uplink_faults.reorder_rate = 0.02;
  config.uplink_faults.seed = 2006;
  config.downlink_faults = config.uplink_faults;
  config.downlink_faults.seed = 2001;
  config.reliable.chunk_bytes = 256;
  config.reliable.retry_budget = drop_rate >= 1.0 ? 6 : 400;
  return config;
}

}  // namespace

int main() {
  const auto series = three_cell_series();
  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  const auto mac_key = examples::enroll_device(
      server, phone::RelayConfig{}.device_id,
      std::vector<std::uint8_t>(16, 0xA5));

  // The session crypto lives in the controller (the TCB); the handshake
  // runs over the clean link and the derived session keys then ride
  // every subsequent upload, lossy or not — the envelope layer is
  // independent of the transport underneath it.
  const auto design = sim::standard_design(9);
  core::KeyParams key_params;
  key_params.num_electrodes = design.num_outputs;
  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 2006);
  controller.enable_session_crypto(phone::RelayConfig{}.device_id, mac_key);

  // 1. Idealized link: the baseline answer.
  phone::PhoneRelay lossless;
  if (!lossless.establish_session(controller, 1, server)) {
    std::printf("session handshake failed\n");
    return 1;
  }
  const auto clean = lossless.relay_analysis(series, 0, server, {},
                                             controller.session_crypto());
  const auto clean_report = core::PeakReport::deserialize(clean.payload);
  std::printf("lossless link : %zu peaks, uplink %.1f ms\n",
              clean_report.reference_peak_count(),
              lossless.timing().uplink_s * 1e3);

  // 2. 10%% drop + corruption + duplication + reordering: same answer,
  //    more air time.
  phone::PhoneRelay lossy(lossy_config(0.10));
  lossy.set_progress_callback(
      [](const std::string& msg) { std::printf("  [phone] %s\n", msg.c_str()); });
  const auto noisy = lossy.relay_analysis(series, 0, server, {},
                                          controller.session_crypto());
  std::printf("lossy link    : report bit-identical: %s | retransmissions "
              "%zu, timeouts %zu, uplink %.1f ms\n",
              noisy.payload == clean.payload ? "yes" : "NO",
              lossy.timing().retransmissions, lossy.timing().timeouts,
              lossy.timing().uplink_s * 1e3);

  // 3. Black hole: the retry budget runs out and the phone analyzes the
  //    sample locally rather than losing the test session.
  phone::PhoneRelay offline(lossy_config(1.0));
  const auto local = offline.relay_analysis(series, 0, server, {},
                                            controller.session_crypto());
  const auto local_report = core::PeakReport::deserialize(local.payload);
  std::printf("dead link     : local fallback %s, %zu peaks found on-phone\n",
              offline.timing().local_fallback ? "engaged" : "NOT engaged",
              local_report.reference_peak_count());
  return 0;
}
