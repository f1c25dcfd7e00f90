// Figure 14: peak-analysis processing time vs sample size, computer vs
// smartphone. Paper numbers (i7-4710MQ vs Nexus 5 Snapdragon 800):
//   240,607 samples: 0.110 s vs 0.343 s
//   481,214 samples: 0.215 s vs 0.810 s
//   962,428 samples: 0.452 s vs 1.554 s
// Absolute times differ on this substrate; the shape to reproduce is
// linear scaling with sample count and a constant ~3.4x phone penalty.
//
// Beyond the paper: the cloud side now runs the analysis on a thread
// pool, so BM_PeakAnalysis_Threads sweeps the thread count over the same
// workloads (plus a 4-carrier acquisition) and records the measured
// `speedup_vs_serial` so the scaling curve lands in the perf trajectory.
// BM_GatedAnalysis_Upload times the request path's own analysis, the
// quality gate and peak detection of one upload, on a fleet-shaped and a
// clinical-shaped upload.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cloud/analysis_service.h"
#include "crypto/chacha20.h"
#include "phone/profile.h"
#include "sim/signal_synth.h"

namespace {

using namespace medsen;

/// The instrument's aggregate output rate: 450 Hz lock-in output times
/// the 8-carrier frequency-division multiplex. `real_time_factor` is how
/// many times faster than this hardware rate one core analyzes.
constexpr double kHardwareSamplesPerSec = 450.0 * 8.0;

/// Synthetic acquisition of n total samples (split evenly over
/// `channels` carriers) with realistic peak density.
util::MultiChannelSeries make_series(std::size_t n_samples,
                                     std::size_t channels = 1) {
  const double rate = 450.0;
  const std::size_t per_channel = n_samples / channels;
  util::MultiChannelSeries series;
  for (std::size_t c = 0; c < channels; ++c) {
    crypto::ChaChaRng rng(n_samples + c);
    std::vector<double> depth(per_channel, 0.0);
    // ~1 peak per second of signal.
    const auto peaks = static_cast<std::size_t>(per_channel / rate);
    for (std::size_t p = 0; p < peaks; ++p) {
      const double center =
          rng.uniform_double() * static_cast<double>(per_channel) / rate;
      sim::add_gaussian_pulse(depth, rate, 0.0, center, 0.006,
                              0.004 + 0.01 * rng.uniform_double());
    }
    sim::DriftConfig drift;
    auto baseline = sim::synth_baseline(per_channel, rate, 0.0, drift, rng);
    for (std::size_t i = 0; i < per_channel; ++i)
      baseline[i] *= 1.0 - depth[i];
    sim::add_white_noise(baseline, 1.2e-4, rng);
    series.carrier_frequencies_hz.push_back(5.0e5 * (c + 1));
    series.channels.emplace_back(rate, std::move(baseline));
  }
  return series;
}

/// One serial analyze() to baseline the thread sweep against.
double serial_seconds(const util::MultiChannelSeries& series) {
  cloud::AnalysisConfig config;
  config.threads = 1;
  cloud::AnalysisService serial(config);
  const auto start = std::chrono::steady_clock::now();
  auto report = serial.analyze(series);
  benchmark::DoNotOptimize(report);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_PeakAnalysis_Computer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto series = make_series(n);
  // Paper's Fig. 14 computer curve is a single-core i7: keep serial.
  cloud::AnalysisConfig config;
  config.threads = 1;
  cloud::AnalysisService service(config);
  double total_s = 0.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto report = service.analyze(series);
    benchmark::DoNotOptimize(report);
    total_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    ++iterations;
  }
  const double per_core =
      iterations > 0 && total_s > 0.0
          ? static_cast<double>(n) /
                (total_s / static_cast<double>(iterations))
          : 0.0;
  state.counters["samples"] = static_cast<double>(n);
  state.counters["profile_scale"] = phone::computer_profile().slowdown;
  state.counters["samples_per_sec_per_core"] = per_core;
  state.counters["real_time_factor"] = per_core / kHardwareSamplesPerSec;
}

void BM_PeakAnalysis_Nexus5Model(benchmark::State& state) {
  const auto series = make_series(static_cast<std::size_t>(state.range(0)));
  cloud::AnalysisConfig config;
  config.threads = 1;
  cloud::AnalysisService service(config);
  const auto profile = phone::nexus5_profile();
  double total_scaled_s = 0.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto report = service.analyze(series);
    benchmark::DoNotOptimize(report);
    const double real = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    // Report the profile-scaled time as this iteration's duration.
    state.SetIterationTime(profile.scale(real));
    total_scaled_s += profile.scale(real);
    ++iterations;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const double per_core =
      iterations > 0 && total_scaled_s > 0.0
          ? static_cast<double>(n) /
                (total_scaled_s / static_cast<double>(iterations))
          : 0.0;
  state.counters["samples"] = static_cast<double>(n);
  state.counters["profile_scale"] = profile.slowdown;
  state.counters["samples_per_sec_per_core"] = per_core;
  state.counters["real_time_factor"] = per_core / kHardwareSamplesPerSec;
}

/// Thread-count sweep over the paper's workloads. range(0) = total
/// samples, range(1) = threads, range(2) = carrier channels.
void BM_PeakAnalysis_Threads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const auto channels = static_cast<std::size_t>(state.range(2));
  const auto series = make_series(n, channels);
  const double serial_s = serial_seconds(series);

  cloud::AnalysisConfig config;
  config.threads = threads;
  cloud::AnalysisService service(config);

  double total_s = 0.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto report = service.analyze(series);
    benchmark::DoNotOptimize(report);
    total_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    ++iterations;
  }
  const double mean_s =
      iterations > 0 ? total_s / static_cast<double>(iterations) : 0.0;
  const double per_core =
      mean_s > 0.0
          ? static_cast<double>(n) / mean_s / static_cast<double>(threads)
          : 0.0;
  state.counters["samples"] = static_cast<double>(n);
  state.counters["channels"] = static_cast<double>(channels);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup_vs_serial"] = mean_s > 0.0 ? serial_s / mean_s : 0.0;
  state.counters["samples_per_sec_per_core"] = per_core;
  state.counters["real_time_factor"] = per_core / kHardwareSamplesPerSec;
}

/// AnalysisService::analyze_gated on one thread, as CloudServer::handle
/// runs it for every upload with the quality gate on. range(0) = samples
/// per channel, range(1) = channels: 900 x 1 is a fleet upload (2 s at
/// 450 Hz, one detrend window), 9,000 x 2 a clinical session's (20 s on
/// two carriers).
void BM_GatedAnalysis_Upload(benchmark::State& state) {
  const auto per_channel = static_cast<std::size_t>(state.range(0));
  const auto channels = static_cast<std::size_t>(state.range(1));
  const std::size_t n = per_channel * channels;
  const auto series = make_series(n, channels);
  cloud::AnalysisConfig config;
  config.threads = 1;
  cloud::AnalysisService service(config);
  if (!service.analyze_gated(series).quality.acceptable) {
    state.SkipWithError("the upload fails the quality gate");
    return;
  }
  double total_s = 0.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto result = service.analyze_gated(series);
    benchmark::DoNotOptimize(result);
    total_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    ++iterations;
  }
  const double per_core =
      iterations > 0 && total_s > 0.0
          ? static_cast<double>(n) /
                (total_s / static_cast<double>(iterations))
          : 0.0;
  state.counters["samples"] = static_cast<double>(n);
  state.counters["samples_per_sec_per_core"] = per_core;
}

BENCHMARK(BM_PeakAnalysis_Computer)
    ->Arg(240607)
    ->Arg(481214)
    ->Arg(962428)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PeakAnalysis_Nexus5Model)
    ->Arg(240607)
    ->Arg(481214)
    ->Arg(962428)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
// Single-carrier sweep (window-level parallelism only) ...
BENCHMARK(BM_PeakAnalysis_Threads)
    ->ArgsProduct({{240607, 481214, 962428}, {1, 2, 4, 8}, {1}})
    ->Unit(benchmark::kMillisecond);
// ... and the 4-carrier acquisition (channel- and window-level).
BENCHMARK(BM_PeakAnalysis_Threads)
    ->ArgsProduct({{962428}, {1, 2, 4, 8}, {4}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GatedAnalysis_Upload)
    ->Args({900, 1})
    ->Args({9000, 2})
    ->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every finished run folded into the
/// shared bench::JsonCounters artifact: per run, its adjusted time and
/// user counters under dotted keys
/// ("BM_PeakAnalysis_Threads.962428.4.1.speedup_vs_serial").
class JsonArtifactReporter : public benchmark::ConsoleReporter {
 public:
  JsonArtifactReporter() : json_("fig14_analysis_perf") {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string key = run.benchmark_name();
      for (char& c : key)
        if (c == '/') c = '.';
      json_.set(key + ".time_ms", run.GetAdjustedRealTime());
      for (const auto& [counter_name, counter] : run.counters)
        json_.set(key + "." + counter_name,
                  static_cast<double>(counter.value));
    }
  }

  void write_artifact() const { json_.write(); }

 private:
  medsen::bench::JsonCounters json_;
};

}  // namespace

int main(int argc, char** argv) {
  // `--smoke`: CI preset — run only the paper's smallest computer-curve
  // workload and the two gated uploads, so bench-smoke gets the headline
  // samples_per_sec_per_core / real_time_factor counters in seconds, not
  // minutes.
  std::vector<char*> args(argv, argv + argc);
  std::string smoke_filter =
      "--benchmark_filter=BM_PeakAnalysis_Computer/240607|"
      "BM_GatedAnalysis_Upload";
  bool smoke = false;
  for (auto it = args.begin(); it != args.end();) {
    if (std::string(*it) == "--smoke") {
      smoke = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (smoke) args.push_back(smoke_filter.data());
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data()))
    return 1;
  JsonArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_artifact();
  benchmark::Shutdown();
  return 0;
}
