#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace medsen::perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      break;
    }
    status.ignore(1 << 12, '\n');
  }
  return kib / 1024.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

double steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  return fields[7];
}

const char* class_name(OpClass cls) {
  switch (cls) {
    case OpClass::kSession: return "session";
    case OpClass::kUpload: return "upload";
    case OpClass::kReplay: return "replay";
    case OpClass::kReject: return "reject";
    case OpClass::kAuth: return "auth";
    case OpClass::kHandshake: return "handshake";
    case OpClass::kHostile: return "hostile";
    case OpClass::kCount: break;
  }
  return "?";
}

std::size_t outcome_slot(const net::Envelope& response) {
  if (response.type != net::MessageType::kError)
    return static_cast<std::size_t>(response.type) & 15u;
  return 16 + (static_cast<std::size_t>(error_code(response)) & 15u);
}

std::string outcome_name(std::size_t slot) {
  static const char* const kTypes[] = {
      "?",           "SignalUpload", "AnalysisResult", "AuthDecision",
      "Progress",    "Error",        "AuthPass",       "AuthChallenge",
      "AuthResponse"};
  if (slot < 16)
    return slot < std::size(kTypes) ? kTypes[slot] : "type" + std::to_string(slot);
  return std::string("Error/") +
         net::to_string(static_cast<net::ErrorCode>(slot - 16));
}

net::ErrorCode error_code(const net::Envelope& response) {
  try {
    return net::ErrorPayload::deserialize(response.payload).code;
  } catch (const std::exception&) {
    return net::ErrorCode::kMalformed;
  }
}

void ClientLog::note_op(OpClass cls, std::uint64_t device) {
  ++ops[index(cls)];
  for (const std::uint64_t v : {static_cast<std::uint64_t>(cls), device}) {
    sequence_digest ^= v;
    sequence_digest *= 0x100000001b3ull;
  }
}

void ClientLog::fail(std::string note) {
  ++failures;
  if (failure_notes.size() < 8) failure_notes.push_back(std::move(note));
}

LoopTiming ClosedLoop::split(double wall_s, bool trace) {
  LoopTiming timing;
  timing.wall_s = wall_s;
  if (!trace) {
    timing.untraced_s = wall_s;
    return timing;
  }
  for (double t = 0.0; t < wall_s; t += kSliceS) {
    const double len = std::min(kSliceS, wall_s - t);
    // Slice index, rounded: t is a whole number of slices.
    const bool traced = static_cast<std::uint64_t>(t / kSliceS + 0.5) % 2 == 1;
    (traced ? timing.traced_s : timing.untraced_s) += len;
  }
  return timing;
}

void StageTimes::record(OpClass cls, const char* stage, bool server,
                        std::int32_t root, const RequestId& id,
                        std::uint64_t start, std::uint64_t end) {
  auto& acc = acc_[{index(cls), stage}];
  acc.sum_us += us_between(start, end);
  ++acc.n;
  acc.server = server;
  spans_.add(stage, root, start, end, id);
}

double StageTimes::mean_us(OpClass cls, const std::string& stage) const {
  const auto it = acc_.find({index(cls), stage});
  return it == acc_.end() || it->second.n == 0
             ? 0.0
             : it->second.sum_us / static_cast<double>(it->second.n);
}

double StageTimes::mean_us(const std::string& stage) const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [key, acc] : acc_) {
    if (key.second != stage) continue;
    sum += acc.sum_us;
    n += acc.n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double StageTimes::total_us(const std::string& stage) const {
  double sum = 0.0;
  for (const auto& [key, acc] : acc_)
    if (key.second == stage) sum += acc.sum_us;
  return sum;
}

double StageTimes::server_stage_us(OpClass cls) const {
  double total = 0.0;
  for (const auto& [key, acc] : acc_)
    if (key.first == index(cls) && acc.server && acc.n > 0)
      total += acc.sum_us / static_cast<double>(acc.n);
  return total;
}

OsCounters OsCounters::now() {
  OsCounters counters;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  counters.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  counters.minor_faults = static_cast<double>(usage.ru_minflt);
  counters.voluntary_switches = static_cast<double>(usage.ru_nvcsw);
  counters.involuntary_switches = static_cast<double>(usage.ru_nivcsw);
  counters.max_rss_mib = peak_rss_mib();
  counters.steal_ticks = perfbench::steal_ticks();
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (io >> key >> value) {
    if (key == "write_bytes:") counters.write_bytes = value;
  }
  return counters;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace medsen::perfbench
