#pragma once
// Shared rig setup for the figure-regeneration benches. Parameters follow
// the fabricated prototype: 9-output electrode array, 450 Hz lock-in
// output, 0.08 uL/min nominal flow, PBS-suspended 3.58/7.8 um beads and
// blood cells.

#include <malloc.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "crypto/cmac.h"
#include "sim/acquisition.h"

namespace medsen::bench {

/// Enroll `device_id` on `server` the way a deployment does: the server
/// installs `master` as epoch 0 on first use and records only the id.
/// Returns the key the device holds, diversified from that master.
inline std::vector<std::uint8_t> enroll_device(
    cloud::CloudServer& server, std::uint64_t device_id,
    const std::vector<std::uint8_t>& master) {
  if (!server.devices().has_epoch(0)) server.rotate_master_key(0, master);
  server.enroll_device(device_id);
  return crypto::diversify_device_key(master, device_id, 0);
}

inline sim::ChannelConfig default_channel(bool losses = false) {
  sim::ChannelConfig channel;
  channel.loss.enabled = losses;
  return channel;
}

inline sim::AcquisitionConfig quiet_acquisition(
    std::vector<double> carriers = {5.0e5, 2.0e6}) {
  sim::AcquisitionConfig config;
  config.carriers_hz = std::move(carriers);
  config.noise_sigma = 5e-5;
  config.drift.slow_amplitude = 0.002;
  config.drift.random_walk_sigma = 1e-6;
  return config;
}

inline core::KeyParams default_key_params(std::size_t electrodes = 9) {
  core::KeyParams params;
  params.num_electrodes = electrodes;
  params.period_s = 4.0;
  params.gain_min = 0.8;
  params.gain_max = 1.6;
  return params;
}

/// A fixed control trace: one segment, given mask, unit gains, 0.08 uL/min.
inline std::vector<sim::ControlSegment> fixed_control(
    sim::ElectrodeMask mask, double flow_ul_min = 0.08) {
  sim::ControlSegment seg;
  seg.t_start_s = 0.0;
  seg.active_mask = mask;
  seg.flow_ul_min = flow_ul_min;
  return {seg};
}

/// Resident memory now (VmRSS in /proc/self/status), in bytes, after
/// malloc_trim has handed freed heap back, so only live memory counts.
inline double resident_bytes() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0;  // the line is in kB
  return 0.0;
}

inline void header(const char* figure, const char* claim) {
  std::printf("== %s ==\n", figure);
  std::printf("paper: %s\n", claim);
}

/// Shared JSON counter artifact for the benches: every bench that wants
/// a machine-scrapable trajectory emits the same schema,
///
///   {"bench": "<name>", "counters": {"<dotted.key>": <value>, ...}}
///
/// into `BENCH_<name>.json` (insertion-ordered keys, so diffs across
/// runs line up). Nested groups are spelled with dotted keys
/// ("scaling.speedup") instead of nested objects — flat files make
/// regression floors one-line comparisons for CI.
class JsonCounters {
 public:
  explicit JsonCounters(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void set(const std::string& key, double value) {
    std::ostringstream formatted;
    formatted.precision(6);
    formatted << std::fixed << value;
    entries_.emplace_back(key, formatted.str());
  }
  void set_count(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set_text(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }

  [[nodiscard]] std::string str() const {
    std::string json = "{\n  \"bench\": \"" + bench_name_ +
                       "\",\n  \"counters\": {\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      json += "    \"" + entries_[i].first + "\": " + entries_[i].second;
      json += i + 1 < entries_.size() ? ",\n" : "\n";
    }
    json += "  }\n}\n";
    return json;
  }

  /// Write `BENCH_<name>.json` (or an explicit path) and echo to stdout.
  void write(const std::string& path = "") const {
    const std::string target =
        path.empty() ? "BENCH_" + bench_name_ + ".json" : path;
    std::ofstream out(target);
    out << str();
    std::printf("json artifact: %s\n%s", target.c_str(), str().c_str());
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace medsen::bench
