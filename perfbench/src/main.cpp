// medsen_perfbench: runs one benchmark workload and prints its metrics.
//
//   medsen_perfbench --workload <clinical_session|fleet_mixed|
//                                handshake_durable>
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--ops N]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to DIR/trace-<workload>-<seed>.jsonl). The last
// stdout line is the JSON result; the lines before it are a readable
// report, including a "counts" line the determinism self-test compares.
// The exit code is nonzero when any op's outcome was wrong.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fixture.h"

using namespace medsen;
using namespace medsen::perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "medsen_perfbench: %s\n"
               "usage: medsen_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--ops N]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--ops") {
      config.ops = std::stoull(value);
    } else if (arg == "--work-dir") {
      config.work_dir = value;
      have_dir = true;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_dir) usage("--work-dir is required");
  return config;
}

// --- Merged views over the client logs --------------------------------

std::vector<double> merged(const RunReport& report, bool traced, OpClass cls) {
  std::vector<double> all;
  for (const auto& log : report.logs) {
    const auto& v = traced ? log.traced_us[index(cls)] : log.untraced_us[index(cls)];
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

struct Totals {
  std::uint64_t ops = 0;
  std::uint64_t ops_traced = 0;
  std::uint64_t ops_untraced = 0;
  std::uint64_t failures = 0;
  double uplink_bytes = 0.0;
  std::uint64_t digest = 0;
  std::array<std::uint64_t, kClassCount> by_class{};
  std::array<std::uint64_t, kOutcomeSlots> outcomes{};
  std::array<double, kClassCount> cpu_us{};
  std::array<std::uint64_t, kClassCount> cpu_n{};
};

Totals totals(const RunReport& report) {
  Totals t;
  for (const auto& log : report.logs) {
    t.ops_traced += log.ops_traced;
    t.ops_untraced += log.ops_untraced;
    t.failures += log.failures;
    t.uplink_bytes += log.uplink_bytes;
    t.digest = t.digest * 0x100000001b3ull ^ log.sequence_digest;
    for (std::size_t c = 0; c < kClassCount; ++c) {
      t.by_class[c] += log.ops[c];
      t.cpu_us[c] += log.traced_cpu_us[c];
      t.cpu_n[c] += log.traced_cpu_n[c];
    }
    for (std::size_t s = 0; s < kOutcomeSlots; ++s) t.outcomes[s] += log.outcomes[s];
  }
  t.ops = t.ops_traced + t.ops_untraced;
  return t;
}

double per_op(double value, std::uint64_t ops) {
  return ops == 0 ? 0.0 : value / static_cast<double>(ops);
}

// --- End-to-end latency -----------------------------------------------
//
// The bounded latency is the primary class's 1st percentile over the whole
// timed phase. On a shared host the share of ops that other tenants slow
// down swings from almost none to most of them over minutes, which moved
// the median, the 90th percentile and throughput by 50 to 100 % between
// runs of the same code. The fastest 1 % of ops ran while nothing else
// interfered, so their latency is what the code itself decides; a change
// that makes every op slower moves it in full. The report prints the
// other percentiles and throughput.

inline constexpr double kLatencyPercentile = 0.01;

double primary_latency(const RunReport& report) {
  return percentile(merged(report, false, report.primary), kLatencyPercentile);
}

// --- Metrics ------------------------------------------------------------

std::vector<Metric> end_to_end(const RunReport& report, const Totals& t) {
  return {
      {"setup_s", median(report.setup_s), "s"},
      {"latency_p1_us", primary_latency(report), "us"},
      {"peak_rss_mb", report.timing.mark_rss_mib, "MiB"},
      {"uplink_kb_per_op", per_op(t.uplink_bytes, t.ops) / 1024.0, "KiB"},
  };
}

std::vector<Metric> per_layer(const RunReport& report, const Totals& t) {
  const auto& stages = report.stages;
  const auto layer = [&](const std::string& name) {
    const auto it = report.layer.find(name);
    return it == report.layer.end() ? 0.0 : it->second;
  };
  const OpClass primary = report.primary;
  std::vector<Metric> m = {
      {"phone.build_us", layer("phone.build_us"), "us"},
      {"compress.compress_us", layer("compress.compress_us"), "us"},
      {"compress.decompress_us", layer("compress.decompress_us"), "us"},
      {"compress.ratio", layer("compress.ratio"), "ratio"},
      {"net.make_envelope_us", stages.mean_us(primary, "net.make_envelope"), "us"},
  };
  for (std::size_t c = 0; c < kReportedClasses; ++c) {
    const auto cls = static_cast<OpClass>(c);
    m.push_back({std::string("net.verify_envelope_us.") + class_name(cls),
                 stages.mean_us(cls, "net.verify_envelope"), "us"});
  }
  const auto& before = report.stats_before;
  const auto& after = report.stats_after;
  const double replays =
      static_cast<double>(after.replays_served - before.replays_served);
  const double processed =
      static_cast<double>(after.requests_processed - before.requests_processed);
  const OsCounters& os0 = report.os_before;
  const OsCounters& os1 = report.os_after;
  const double wall = report.timing.wall_s;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double untraced_tput = static_cast<double>(t.ops_untraced) /
                               std::max(report.timing.untraced_s, 1e-9);
  const double traced_tput = static_cast<double>(t.ops_traced) /
                             std::max(report.timing.traced_s, 1e-9);
  const double recovery_ms = median(report.recovery_ms);
  m.insert(m.end(), {
      {"net.mac_mb_s", layer("net.mac_mb_s"), "MB/s"},
      {"crypto.handshake_server_us", layer("crypto.handshake_server_us"), "us"},
      {"core.handshake_client_us", layer("core.handshake_client_us"), "us"},
      {"cloud.dispatch.resolve_us",
       stages.mean_us(primary, "cloud.dispatch.resolve"), "us"},
      {"cloud.dispatch.shed",
       static_cast<double>(after.requests_shed - before.requests_shed), "count"},
      {"cloud.session_cache.hit_ratio",
       replays + processed > 0.0 ? replays / (replays + processed) : 0.0,
       "ratio"},
      {"cloud.session_cache.evictions_per_op",
       per_op(static_cast<double>(report.evictions), t.ops), "count/op"},
      {"cloud.session_auth.counter_rejections_per_op",
       per_op(static_cast<double>(after.counter_rejections -
                                  before.counter_rejections),
              t.ops),
       "count/op"},
      {"cloud.quality.assess_us", stages.mean_us("cloud.quality.assess"), "us"},
      {"cloud.quality.rejections",
       static_cast<double>(
           t.outcomes[16 + static_cast<std::size_t>(
                               net::ErrorCode::kQualityRejected)]),
       "count"},
      {"cloud.analysis.analyze_us",
       stages.mean_us(primary, "cloud.analysis.analyze"), "us"},
      {"dsp.msamples_per_s", layer("dsp.msamples_per_s"), "Msample/s"},
  });
  // handle() per class: wall, on-CPU, off-CPU, and what the timed stage
  // functions of the decomposition do not account for. A workload may
  // supply a class's times itself (see RunReport::layer).
  struct HandleTimes {
    double wall = 0.0, oncpu = 0.0, offcpu = 0.0, unattributed = 0.0;
  };
  std::array<HandleTimes, kReportedClasses> handle{};
  for (std::size_t c = 0; c < kReportedClasses; ++c) {
    const auto cls = static_cast<OpClass>(c);
    const std::string suffix = class_name(cls);
    const auto given = [&](const std::string& name, double fallback) {
      return report.layer.count(name + suffix) ? layer(name + suffix)
                                               : fallback;
    };
    auto& h = handle[c];
    h.wall = given("cloud.handle_us.", mean(merged(report, true, cls)));
    if (h.wall <= 0.0) continue;  // the workload has no such request
    h.oncpu = given("cloud.handle_oncpu_us.", per_op(t.cpu_us[c], t.cpu_n[c]));
    h.offcpu = given("cloud.handle_offcpu_us.", h.wall - h.oncpu);
    h.unattributed = h.wall - stages.server_stage_us(cls);
  }
  const std::pair<const char*, double HandleTimes::*> kinds[] = {
      {"cloud.handle_us.", &HandleTimes::wall},
      {"cloud.handle_oncpu_us.", &HandleTimes::oncpu},
      {"cloud.handle_offcpu_us.", &HandleTimes::offcpu},
      {"cloud.handle_unattributed_us.", &HandleTimes::unattributed}};
  for (const auto& [prefix, field] : kinds)
    for (std::size_t c = 0; c < kReportedClasses; ++c)
      m.push_back({prefix + std::string(class_name(static_cast<OpClass>(c))),
                   handle[c].*field, "us"});
  m.insert(m.end(), {
      {"cloud.journal.store_us", layer("cloud.journal.store_us"), "us"},
      {"cloud.journal.bytes_per_op", per_op(report.journal_bytes, t.ops),
       "B/op"},
      {"cloud.recovery.records_replayed",
       static_cast<double>(report.recovery.records_replayed), "count"},
      {"cloud.recovery.us_per_record",
       report.recovery.records_replayed == 0
           ? 0.0
           : recovery_ms * 1e3 /
                 static_cast<double>(report.recovery.records_replayed),
       "us"},
      {"core.conclude_us", layer("core.conclude_us"), "us"},
      {"proc.cpu_util", (os1.cpu_s - os0.cpu_s) / (wall * cores), "ratio"},
      {"proc.minor_faults_per_op",
       per_op(os1.minor_faults - os0.minor_faults, t.ops), "count/op"},
      {"proc.voluntary_switches_per_op",
       per_op(os1.voluntary_switches - os0.voluntary_switches, t.ops),
       "count/op"},
      {"proc.involuntary_switches_per_op",
       per_op(os1.involuntary_switches - os0.involuntary_switches, t.ops),
       "count/op"},
      {"proc.write_bytes_per_op",
       per_op(os1.write_bytes - os0.write_bytes, t.ops), "B/op"},
      {"trace.overhead_pct",
       untraced_tput > 0.0 ? (1.0 - traced_tput / untraced_tput) * 100.0 : 0.0,
       "%"},
  });
  return m;
}

// --- Readable report ---------------------------------------------------

void print_report(const RunConfig& config, const RunReport& report,
                  const Totals& t) {
  std::printf("workload %s  seed %llu  seconds %.1f  trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("set-up s:");
  for (const double s : report.setup_s) std::printf(" %.3f", s);
  std::printf(" (building the state directory:");
  for (const double s : report.build_s) std::printf(" %.3f", s);
  std::printf(")");
  std::printf("\nrecovery ms (median of %zu): %.2f, %llu records replayed "
              "(replay %.2f ms)\n",
              report.recovery_ms.size(), median(report.recovery_ms),
              static_cast<unsigned long long>(report.recovery.records_replayed),
              report.recovery.replay_ms);
  std::printf("RSS: at the timed phase's start %.1f MiB; peak since then at "
              "the mark %.1f MiB, at the end %.1f MiB\n",
              report.os_before.max_rss_mib, report.timing.mark_rss_mib,
              report.os_after.max_rss_mib);
  std::printf("steal: %.1f%% of the timed phase's CPU time\n",
              (report.os_after.steal_ticks - report.os_before.steal_ticks) /
                  (report.timing.wall_s * 100.0 *
                   std::max(1u, std::thread::hardware_concurrency())) * 100.0);
  std::printf("timed %.2f s (untraced %.2f, traced %.2f), %llu ops, %zu clients\n",
              report.timing.wall_s, report.timing.untraced_s,
              report.timing.traced_s, static_cast<unsigned long long>(t.ops),
              report.logs.size());
  std::vector<std::uint64_t> windows;
  for (const auto& log : report.logs) {
    if (windows.size() < log.per_window.size())
      windows.resize(log.per_window.size(), 0);
    for (std::size_t w = 0; w < log.per_window.size(); ++w)
      windows[w] += log.per_window[w];
  }
  std::printf("ops per 1 s window:");
  for (const auto n : windows)
    std::printf(" %llu", static_cast<unsigned long long>(n));
  std::printf("\n");
  std::printf("class        ops        n    p1_us   p50_us   p90_us   p99_us\n");
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const auto cls = static_cast<OpClass>(c);
    if (t.by_class[c] == 0) continue;
    const auto v = merged(report, false, cls);
    std::printf("%-10s %6llu %8zu %8.1f %8.1f %8.1f %8.1f%s\n", class_name(cls),
                static_cast<unsigned long long>(t.by_class[c]), v.size(),
                percentile(v, 0.01), percentile(v, 0.5), percentile(v, 0.9),
                percentile(v, 0.99),
                v.size() >= 1000 ? "" : "  (p1, p99: <10 samples beyond)");
  }
  std::printf("throughput %.1f ops/s, %s p1 %.1f us\n",
              static_cast<double>(t.ops) / report.timing.wall_s,
              class_name(report.primary), primary_latency(report));
  std::printf("responses:");
  for (std::size_t s = 0; s < kOutcomeSlots; ++s)
    if (t.outcomes[s] != 0)
      std::printf(" %s=%llu", outcome_name(s).c_str(),
                  static_cast<unsigned long long>(t.outcomes[s]));
  std::printf("\nerror_rate %.6f (%llu of %llu ops)\n",
              per_op(static_cast<double>(t.failures), t.ops),
              static_cast<unsigned long long>(t.failures),
              static_cast<unsigned long long>(t.ops));
  for (const auto& log : report.logs)
    for (const auto& note : log.failure_notes)
      std::printf("FAILED: %s\n", note.c_str());

  // The determinism self-test compares this line across runs.
  std::string counts = "counts {";
  const auto add = [&](const std::string& key, double value) {
    char text[64];
    std::snprintf(text, sizeof text, "%.12g", value);
    counts += (counts.back() == '{' ? "\"" : ", \"") + key + "\": " + text;
  };
  for (std::size_t c = 0; c < kClassCount; ++c)
    add(std::string("ops.") + class_name(static_cast<OpClass>(c)),
        static_cast<double>(t.by_class[c]));
  for (std::size_t s = 0; s < kOutcomeSlots; ++s)
    if (t.outcomes[s] != 0)
      add("responses." + outcome_name(s), static_cast<double>(t.outcomes[s]));
  add("uplink_kb_per_op", per_op(t.uplink_bytes, t.ops) / 1024.0);
  add("cloud.recovery.records_replayed",
      static_cast<double>(report.recovery.records_replayed));
  for (const auto& [key, value] : report.counts) add(key, value);
  add("sequence_digest", static_cast<double>(t.digest % 1000000007ull));
  std::printf("%s}\n", counts.c_str());
}

/// Write every span once, then print self time per span name.
void write_trace(const RunConfig& config, const RunReport& report) {
  const auto path = config.work_dir / ("trace-" + config.workload + "-" +
                                       std::to_string(config.seed) + ".jsonl");
  std::ofstream out(path);
  std::map<std::string, std::pair<double, std::uint64_t>> self;  // us, count
  const auto dump = [&](const SpanLog& log, const std::string& thread) {
    const auto& spans = log.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const auto& span : spans)
      if (span.parent >= 0)
        child_us[static_cast<std::size_t>(span.parent)] +=
            us_between(span.start_ns, span.end_ns);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << "{\"thread\":\"" << thread << "\",\"span\":" << i
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"device\":" << s.id.device << ",\"session\":" << s.id.session
          << ",\"counter\":" << s.id.counter << "}\n";
      auto& entry = self[s.name];
      entry.first += us_between(s.start_ns, s.end_ns) - child_us[i];
      ++entry.second;
    }
  };
  for (std::size_t c = 0; c < report.logs.size(); ++c)
    dump(report.logs[c].spans, "client" + std::to_string(c));
  dump(report.stages.spans(), "decompose");
  std::printf("trace: %s\n", path.string().c_str());
  std::printf("span                              count  self_us/span\n");
  for (const auto& [name, entry] : self)
    std::printf("%-32s %7llu %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(entry.second),
                entry.first / static_cast<double>(entry.second));
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse(argc, argv);
  RunReport report;
  try {
    std::filesystem::create_directories(config.work_dir);
    if (config.workload == "clinical_session") {
      report = run_clinical_session(config);
    } else if (config.workload == "fleet_mixed") {
      report = run_fleet_mixed(config);
    } else if (config.workload == "handshake_durable") {
      report = run_handshake_durable(config);
    } else {
      usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "medsen_perfbench: %s\n", e.what());
    return 1;
  }
  const Totals t = totals(report);
  print_report(config, report, t);
  if (config.trace) write_trace(config, report);
  if (t.ops == 0) {
    std::fprintf(stderr, "medsen_perfbench: no op completed\n");
    return 1;
  }
  print_result(t.failures == 0, t.ops, t.failures,
               config.trace ? per_layer(report, t) : end_to_end(report, t));
  return t.failures == 0 ? 0 : 1;
}
