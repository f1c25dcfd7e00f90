#pragma once
// Shared machinery of the benchmark program: seeded RNG, clocks, the
// closed-loop client runner, per-client outcome logs, in-memory spans,
// stage timing for the decomposition pass, OS counters and the result
// line. Everything here observes the library from outside; nothing
// reaches into src/ internals.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/messages.h"

namespace medsen::perfbench {

/// SplitMix64: cheap, seedable, identical on every platform.
struct SplitMix {
  std::uint64_t state;

  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Monotonic wall clock and this thread's CPU clock, in nanoseconds.
std::uint64_t now_ns();
std::uint64_t thread_cpu_ns();
/// Peak resident set size since the last reset_peak_rss() (VmHWM in
/// /proc/self/status).
double peak_rss_mib();
/// Return free heap memory to the OS (malloc_trim) and restart the peak
/// RSS at the current RSS (/proc/self/clear_refs). Throws on failure.
void reset_peak_rss();
/// Host CPU time stolen from this guest so far (/proc/stat), in ticks.
double steal_ticks();

inline double us_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

/// Request classes. Each latency percentile is taken over one class.
enum class OpClass : std::uint8_t {
  kSession,    ///< clinical_session: one whole diagnostic session
  kUpload,     ///< fleet_mixed: fresh 7.3 KB upload
  kReplay,     ///< fleet_mixed: byte-identical ARQ replay
  kReject,     ///< fleet_mixed: full-size hostile send refused after MAC
  kAuth,       ///< fleet_mixed: plaintext auth pass
  kHandshake,  ///< handshake_durable: AuthChallenge -> AuthResponse
  kHostile,    ///< fleet_mixed: hostile sends refused before the MAC
  kCount,
};
inline constexpr std::size_t kClassCount =
    static_cast<std::size_t>(OpClass::kCount);
/// Classes that get per-layer handle() metrics (all but kHostile).
inline constexpr std::size_t kReportedClasses = 6;
const char* class_name(OpClass cls);
constexpr std::size_t index(OpClass cls) { return static_cast<std::size_t>(cls); }

/// Response tally slot: message types 1..15 for successes, 16 + code for
/// kError envelopes.
inline constexpr std::size_t kOutcomeSlots = 32;
std::size_t outcome_slot(const net::Envelope& response);
std::string outcome_name(std::size_t slot);
/// The ErrorCode of a kError envelope (kMalformed when undecodable).
net::ErrorCode error_code(const net::Envelope& response);

/// The deterministic request id a span belongs to.
struct RequestId {
  std::uint64_t device = 0;
  std::uint64_t session = 0;
  std::uint32_t counter = 0;
};

struct Span {
  const char* name;      ///< "<layer>.<function>", static storage
  std::int32_t parent;   ///< index in the same SpanLog, -1 for a root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  RequestId id;
};

/// Spans of one thread, kept in memory and written once at the end. A
/// fleet run makes millions of calls, so each log keeps the first kCap
/// spans; the per-layer metrics use every traced call regardless.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 1u << 13;

  /// Returns the span's index, or -1 once the log is full.
  std::int32_t add(const char* name, std::int32_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   const RequestId& id) {
    if (spans_.size() >= kCap) return -1;
    spans_.push_back({name, parent, start_ns, end_ns, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_end(std::int32_t span, std::uint64_t end_ns) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Everything one client thread observed. Merged after the loop.
struct ClientLog {
  /// Untraced slices: each op's end-to-end latency, by class (handle()
  /// wall time, or the whole session for kSession).
  std::array<std::vector<double>, kClassCount> untraced_us;
  /// Traced slices: handle() wall time, by class.
  std::array<std::vector<double>, kClassCount> traced_us;
  /// Thread CPU time inside handle(), summed over traced ops.
  std::array<double, kClassCount> traced_cpu_us{};
  std::array<std::uint64_t, kClassCount> traced_cpu_n{};
  std::array<std::uint64_t, kClassCount> ops{};
  std::uint64_t ops_untraced = 0;
  std::uint64_t ops_traced = 0;
  /// Ops completed in each 1 s window of the timed phase.
  std::vector<std::uint32_t> per_window;
  std::array<std::uint64_t, kOutcomeSlots> outcomes{};
  std::uint64_t failures = 0;
  std::vector<std::string> failure_notes;
  double uplink_bytes = 0.0;
  /// FNV-1a over the (class, device) sequence: the op-sequence digest.
  std::uint64_t sequence_digest = 0xcbf29ce484222325ull;
  SpanLog spans;

  void note_op(OpClass cls, std::uint64_t device);
  void untraced(OpClass cls, double us) { untraced_us[index(cls)].push_back(us); }
  void tally(const net::Envelope& response) {
    ++outcomes[outcome_slot(response)];
  }
  void fail(std::string note);
};

/// Wall time of the timed phase, split into traced and untraced slices.
struct LoopTiming {
  double wall_s = 0.0;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  /// Peak RSS when the mark_ops-th op completed (at the end of the loop
  /// when fewer ops completed).
  double mark_rss_mib = 0.0;
};

/// Closed-loop load: `clients` threads, each issuing its next op only
/// after the previous one returned. Stops after `seconds` of wall time,
/// or after `ops_per_client` ops per client when that is nonzero. With
/// `trace`, alternate 1 s slices run untraced (even) and traced (odd).
struct LoopConfig {
  std::size_t clients = 1;
  double seconds = 10.0;
  std::uint64_t ops_per_client = 0;
  bool trace = false;
  /// Op count (all clients) at which LoopTiming::mark_rss_mib is read.
  std::uint64_t mark_ops = 0;
};

class ClosedLoop {
 public:
  static constexpr double kSliceS = 1.0;

  /// `op(client, traced, log)` runs one op on client `client`.
  template <class Op>
  static LoopTiming run(const LoopConfig& config, std::vector<ClientLog>& logs,
                        Op&& op) {
    logs.resize(config.clients);
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> start_ns{0};
    std::vector<std::uint64_t> end_ns(config.clients, 0);
    std::atomic<std::uint64_t> completed{0};
    std::atomic<double> mark_rss{0.0};
    const auto deadline_ns =
        static_cast<std::uint64_t>(config.seconds * 1e9);
    const auto slice_ns = static_cast<std::uint64_t>(kSliceS * 1e9);
    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (std::size_t c = 0; c < config.clients; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::uint64_t t0 = start_ns.load(std::memory_order_relaxed);
        for (std::uint64_t done = 0;; ++done) {
          const std::uint64_t elapsed = now_ns() - t0;
          if (config.ops_per_client != 0 ? done >= config.ops_per_client
                                         : elapsed >= deadline_ns)
            break;
          const bool traced = config.trace && (elapsed / slice_ns) % 2 == 1;
          try {
            op(c, traced, logs[c]);
          } catch (const std::exception& e) {
            logs[c].fail(std::string("op threw: ") + e.what());
          }
          ++(traced ? logs[c].ops_traced : logs[c].ops_untraced);
          if (completed.fetch_add(1) + 1 == config.mark_ops)
            mark_rss.store(peak_rss_mib());
          const std::size_t window = (now_ns() - t0) / slice_ns;
          auto& per_window = logs[c].per_window;
          if (per_window.size() <= window) per_window.resize(window + 1, 0);
          ++per_window[window];
        }
        end_ns[c] = now_ns();
      });
    }
    start_ns.store(now_ns(), std::memory_order_relaxed);
    go.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();
    const std::uint64_t last = *std::max_element(end_ns.begin(), end_ns.end());
    LoopTiming timing =
        split(static_cast<double>(last - start_ns.load()) / 1e9, config.trace);
    timing.mark_rss_mib =
        mark_rss.load() > 0.0 ? mark_rss.load() : peak_rss_mib();
    return timing;
  }

 private:
  static LoopTiming split(double wall_s, bool trace);
};

/// Stage timing for the decomposition pass: the benchmark calls the same
/// public functions a request's handle() calls, on that request's bytes,
/// and records how long each took. `server` stages run inside handle();
/// the rest run on the client. Each stage runs once untimed first: inside
/// handle() the request's bytes are hot, since the client just built or
/// copied them.
class StageTimes {
 public:
  template <class Fn>
  auto time(OpClass cls, const char* stage, bool server, std::int32_t root,
            const RequestId& id, Fn&& fn) {
    (void)fn();
    const std::uint64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(cls, stage, server, root, id, start, now_ns());
    } else {
      auto result = fn();
      record(cls, stage, server, root, id, start, now_ns());
      return result;
    }
  }
  void record(OpClass cls, const char* stage, bool server, std::int32_t root,
              const RequestId& id, std::uint64_t start, std::uint64_t end);

  /// Mean of one stage over one class (0 when never timed).
  [[nodiscard]] double mean_us(OpClass cls, const std::string& stage) const;
  /// Mean and total of one stage over every class that ran it.
  [[nodiscard]] double mean_us(const std::string& stage) const;
  [[nodiscard]] double total_us(const std::string& stage) const;
  /// Summed mean time of the server-side stages of one class.
  [[nodiscard]] double server_stage_us(OpClass cls) const;
  [[nodiscard]] SpanLog& spans() { return spans_; }
  [[nodiscard]] const SpanLog& spans() const { return spans_; }

 private:
  struct Acc {
    double sum_us = 0.0;
    std::uint64_t n = 0;
    bool server = false;
  };
  std::map<std::pair<std::size_t, std::string>, Acc> acc_;
  SpanLog spans_;
};

/// Process-wide OS counters (getrusage and /proc/self/io).
struct OsCounters {
  double cpu_s = 0.0;
  double minor_faults = 0.0;
  double voluntary_switches = 0.0;
  double involuntary_switches = 0.0;
  double max_rss_mib = 0.0;
  double write_bytes = 0.0;
  double steal_ticks = 0.0;

  static OsCounters now();
};

/// Nearest-rank percentile of an unsorted sample (p in (0, 1]).
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// Ordered metric list printed as the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace medsen::perfbench
