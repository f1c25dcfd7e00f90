// Self-healing session loop under injected sensor faults: sweeps each
// fault scenario over many seeded sessions and reports how often the
// detect -> re-key -> retry -> quarantine loop converges to a
// full-confidence diagnosis, how many attempts it needs, and how many
// electrodes end up quarantined. Emits both a CSV table and the shared
// bench::JsonCounters artifact (BENCH_fault_recovery.json) for
// dashboard scraping.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cloud/server.h"
#include "phone/relay.h"

using namespace medsen;

namespace {

using FaultSetup = std::function<void(sim::FaultConfig&)>;

struct Scenario {
  const char* name;
  FaultSetup setup;
};

struct Counters {
  std::size_t sessions = 0;
  std::size_t successes = 0;   ///< full-confidence diagnosis
  std::size_t recovered = 0;   ///< succeeded after >= 1 rejection
  std::size_t degraded = 0;    ///< retry budget exhausted
  std::size_t attempts = 0;
  std::size_t rejections = 0;
  std::size_t quarantined = 0;  ///< electrodes, summed over sessions
};

std::size_t popcount(sim::ElectrodeMask mask) {
  std::size_t n = 0;
  for (; mask != 0; mask &= mask - 1) ++n;
  return n;
}

Counters sweep(const FaultSetup& setup, std::size_t sessions) {
  const auto design = sim::standard_design(9);
  const auto channel = bench::default_channel();
  const auto key_params = bench::default_key_params();
  const double duration_s = 25.0;

  Counters counters;
  for (std::size_t run = 0; run < sessions; ++run) {
    auto acquisition = bench::quiet_acquisition();
    acquisition.faults.seed = 0x1457 + 977 * run;
    setup(acquisition.faults);

    core::Controller controller(key_params, design,
                                core::DiagnosticProfile::cd4_staging(),
                                1000 + run);
    auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                     auth::CytoAlphabet{},
                                     auth::ParticleClassifier::train({}));
    phone::PhoneRelay relay;
    const auto mac_key = bench::enroll_device(
        server, relay.config().device_id,
        std::vector<std::uint8_t>(16, 0xB0));

    sim::SampleSpec sample;
    sample.components = {{sim::ParticleType::kBead780, 300.0}};
    const phone::AcquireFn acquire =
        [&](std::span<const sim::ControlSegment> control, double duration,
            std::size_t attempt) {
          auto config = acquisition;
          config.faults.attempt = attempt;
          return sim::acquire(sample, channel, design, config, control,
                              duration, 40 + run)
              .signals;
        };

    const auto outcome = relay.run_diagnostic_session(
        controller, duration_s, acquire, 1 + run * 100, server, mac_key);
    ++counters.sessions;
    counters.attempts += outcome.attempts;
    counters.rejections += outcome.quality_rejections;
    counters.quarantined += popcount(controller.health().quarantined());
    if (outcome.degraded)
      ++counters.degraded;
    else
      ++counters.successes;
    if (outcome.recovered) ++counters.recovered;
  }
  return counters;
}

}  // namespace

int main() {
  bench::header("Fault injection x self-healing recovery",
                "a dead electrode plus transient bubbles converges to a "
                "correct diagnosis within the 3-attempt retry budget; "
                "unhealable faults degrade instead of failing");

  const std::vector<Scenario> scenarios = {
      {"fault_free", [](sim::FaultConfig&) {}},
      {"open_electrode",
       [](sim::FaultConfig& f) {
         f.open.enabled = true;
         f.open.electrode = 0;
       }},
      {"bubbles",
       [](sim::FaultConfig& f) { f.bubbles.enabled = true; }},
      {"open_plus_bubbles",
       [](sim::FaultConfig& f) {
         f.open.enabled = true;
         f.open.electrode = 0;
         f.bubbles.enabled = true;
       }},
      {"stuck_on_mux",
       [](sim::FaultConfig& f) {
         f.stuck_mux.enabled = true;
         f.stuck_mux.electrode = 4;
       }},
      {"clog_stall",
       [](sim::FaultConfig& f) {
         f.clog.enabled = true;
         f.clog.tau_s = 2.0;
       }},
      {"adc_stuck",
       [](sim::FaultConfig& f) {
         f.adc_stuck.enabled = true;
         f.adc_stuck.channel = 1;
         f.adc_stuck.window_frac = 0.4;
       }},
  };

  const std::size_t sessions = 8;
  std::printf(
      "scenario,sessions,success_rate,recovered_rate,degraded_rate,"
      "mean_attempts,mean_rejections,quarantined_electrodes\n");
  bench::JsonCounters json("fault_recovery");
  json.set_count("sessions_per_scenario", sessions);
  for (const auto& scenario : scenarios) {
    const auto c = sweep(scenario.setup, sessions);
    const double n = static_cast<double>(c.sessions);
    const double success_rate = static_cast<double>(c.successes) / n;
    const double recovered_rate = static_cast<double>(c.recovered) / n;
    const double degraded_rate = static_cast<double>(c.degraded) / n;
    const double mean_attempts = static_cast<double>(c.attempts) / n;
    const double mean_rejections = static_cast<double>(c.rejections) / n;
    std::printf("%s,%zu,%.2f,%.2f,%.2f,%.2f,%.2f,%zu\n", scenario.name,
                c.sessions, success_rate, recovered_rate, degraded_rate,
                mean_attempts, mean_rejections, c.quarantined);
    const std::string prefix = scenario.name;
    json.set(prefix + ".success_rate", success_rate);
    json.set(prefix + ".recovered_rate", recovered_rate);
    json.set(prefix + ".degraded_rate", degraded_rate);
    json.set(prefix + ".mean_attempts", mean_attempts);
    json.set(prefix + ".mean_rejections", mean_rejections);
    json.set_count(prefix + ".quarantined_electrodes", c.quarantined);
  }
  json.write();
  std::printf(
      "note: success_rate counts full-confidence diagnoses; degraded "
      "sessions still produce a best-effort diagnosis with confidence "
      "%.2f.\n",
      core::RetryPolicy{}.degraded_confidence);
  return 0;
}
