// Abstract / Section VII claim: MedSen's end-to-end time requirement for
// disease diagnostics is ~0.2 s on average (post-acquisition processing:
// upload the encrypted measurement window, cloud peak analysis, download,
// controller decode + threshold diagnosis). Acquisition itself (pumping
// blood) is physical time and excluded, as in the paper.

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "phone/relay.h"

using namespace medsen;

int main() {
  bench::header("End-to-end latency",
                "diagnostics processing completes in ~0.2 s on average");

  const auto design = sim::standard_design(9);
  const auto channel = bench::default_channel();
  const auto config = bench::quiet_acquisition();
  auto key_params = bench::default_key_params();

  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 11);
  core::SensorEncryptor encryptor(design, channel, config);
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  const auto mac_key = bench::enroll_device(
      server, phone::RelayConfig{}.device_id,
      std::vector<std::uint8_t>(16, 0x3E));

  std::printf(
      "run,usb_in_ms,compress_ms,uplink_ms,analysis_ms,downlink_ms,"
      "usb_out_ms,decode_ms,total_ms\n");
  double total_sum = 0.0;
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    const double duration = 20.0;  // one measurement window
    (void)controller.begin_session(duration);
    sim::SampleSpec sample;
    sample.components = {{sim::ParticleType::kBloodCell, 400.0}};
    const auto enc = encryptor.acquire(
        sample, controller.session_key_schedule_for_testing(), duration,
        200 + static_cast<std::uint64_t>(run));

    phone::PhoneRelay relay;
    const auto response = relay.relay_analysis(
        enc.signals, static_cast<std::uint64_t>(run), server, mac_key);
    const auto report = core::PeakReport::deserialize(response.payload);

    const auto t0 = std::chrono::steady_clock::now();
    const auto diagnosis = controller.conclude(report);
    const double decode_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    (void)diagnosis;

    const auto& t = relay.timing();
    const double total = t.total_s() + decode_s;
    total_sum += total;
    std::printf("%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.2f,%.1f\n", run,
                t.usb_in_s * 1e3, t.compression_s * 1e3, t.uplink_s * 1e3,
                t.analysis_s * 1e3, t.downlink_s * 1e3, t.usb_out_s * 1e3,
                decode_s * 1e3, total * 1e3);
  }
  std::printf("mean end-to-end: %.1f ms (paper: ~200 ms)\n",
              total_sum / kRuns * 1e3);

  // Latency vs loss rate: the same round trip over a lossy uplink with
  // the reliable transport (chunked ARQ, exponential backoff). 100% drop
  // exercises the graceful degradation to on-phone analysis.
  bench::header("Latency vs loss rate",
                "reliable transport keeps the result exact; retries and "
                "timeout waits stretch the wire time");
  std::printf(
      "drop_pct,retransmissions,timeouts,uplink_ms,downlink_ms,total_ms,"
      "local_fallback\n");
  const double duration = 20.0;
  (void)controller.begin_session(duration);
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 400.0}};
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration, 900);
  for (const double drop_pct : {0.0, 2.0, 5.0, 10.0, 20.0, 100.0}) {
    phone::RelayConfig relay_config;
    relay_config.reliable_transport = true;
    relay_config.uplink_faults.drop_rate = drop_pct / 100.0;
    relay_config.uplink_faults.corrupt_rate = 0.02;
    relay_config.uplink_faults.duplicate_rate = 0.01;
    relay_config.uplink_faults.reorder_rate = 0.01;
    relay_config.uplink_faults.seed = 31 + static_cast<std::uint64_t>(drop_pct);
    relay_config.downlink_faults = relay_config.uplink_faults;
    relay_config.downlink_faults.seed += 1000;
    relay_config.reliable.chunk_bytes = 4096;
    relay_config.reliable.retry_budget = drop_pct >= 100.0 ? 8 : 500;

    phone::PhoneRelay lossy(relay_config);
    const auto session =
        1000 + static_cast<std::uint64_t>(drop_pct * 10.0);
    const auto response =
        lossy.relay_analysis(enc.signals, session, server, mac_key);
    (void)response;
    const auto& t = lossy.timing();
    std::printf("%.0f,%zu,%zu,%.1f,%.1f,%.1f,%s\n", drop_pct,
                t.retransmissions, t.timeouts, t.uplink_s * 1e3,
                t.downlink_s * 1e3, t.total_s() * 1e3,
                t.local_fallback ? "yes" : "no");
  }
  return 0;
}
