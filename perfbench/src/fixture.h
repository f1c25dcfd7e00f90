#pragma once
// The service every workload runs against, and what a run reports.
//
// Every workload starts the way a deployed service restarts: set-up
// builds a state directory with fixed, seeded content (an enrolled
// fleet, a revocation list, sealed stored records and one burned
// handshake ordinal per device), reopens copies of it into fresh servers
// to time recovery, and serves from one of them. The content is
// fixed so recovery time never depends on how many ops an earlier run
// completed.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auth/identifier.h"
#include "cloud/durability.h"
#include "cloud/server.h"
#include "core/session_crypto.h"
#include "harness.h"

namespace medsen::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Nonzero: stop after this many ops per client instead of after
  /// `seconds` (the determinism self-test).
  std::uint64_t ops = 0;
  /// Holds the state directories; must be on a disk-backed filesystem,
  /// or fsync costs nothing.
  std::filesystem::path work_dir;
};

/// Full set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

/// What one workload run measured. main.cpp turns it into metrics.
struct RunReport {
  OpClass primary = OpClass::kUpload;
  std::vector<ClientLog> logs;
  LoopTiming timing;
  std::vector<double> setup_s;
  /// Building the fixed-content state directory, per set-up.
  std::vector<double> build_s;
  std::vector<double> recovery_ms;
  cloud::RecoveryStats recovery;
  OsCounters os_before;
  OsCounters os_after;
  /// State-directory bytes written by the timed phase.
  double journal_bytes = 0.0;
  cloud::ServiceStats stats_before;
  cloud::ServiceStats stats_after;
  std::uint64_t evictions = 0;
  /// Decomposition pass (traced runs only).
  StageTimes stages;
  /// Per-layer values the workload measured itself, by metric name.
  std::map<std::string, double> layer;
  /// Extra counts for the determinism self-test.
  std::map<std::string, double> counts;
};

RunReport run_clinical_session(const RunConfig& config);
RunReport run_fleet_mixed(const RunConfig& config);
RunReport run_handshake_durable(const RunConfig& config);

// --- The fixed-content service ---------------------------------------

inline constexpr std::uint32_t kEpoch = 1;
/// Enrolled, serving devices: ids [0, kFleetDevices).
inline constexpr std::uint64_t kFleetDevices = 20000;
/// Enrolled then revoked: ids [kFleetDevices, kFleetDevices + kRevoked).
inline constexpr std::uint64_t kRevokedDevices = 200;
inline constexpr std::size_t kStoredRecords = 2000;
inline constexpr std::size_t kPatientCodes = 500;
inline constexpr std::size_t kReopenings = 2;
/// Client threads of the multi-client workloads (the container's nproc).
inline constexpr std::size_t kFleetClients = 4;

std::vector<std::uint8_t> master_key(std::uint64_t seed);
/// The device's long-term key, as burned in at personalization.
std::vector<std::uint8_t> device_key(std::uint64_t seed, std::uint64_t device);
auth::CytoCode patient_code(std::uint64_t seed, std::uint64_t patient);

/// A recovered server and the journal it appends to.
struct Service {
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service();

  std::filesystem::path dir;
  std::unique_ptr<cloud::DurableState> durable;  ///< outlives `server`
  std::unique_ptr<cloud::CloudServer> server;
};

/// Build the fixed-content state directory for set-up `rep`, recover
/// copies of it kReopenings times each (appending to report.recovery_ms)
/// and return one recovered service, journaling with `fsync`.
std::unique_ptr<Service> restart_service(const RunConfig& config,
                                         std::size_t rep, bool fsync,
                                         bool quality_gate,
                                         RunReport& report);

/// Client-side handshake timing, plus exchanges kept for decomposition.
struct HandshakeLog {
  static constexpr std::size_t kKept = 128;
  std::vector<std::pair<net::Envelope, net::Envelope>> exchanges;
  double client_us = 0.0;  ///< make_challenge + complete, summed
  std::uint64_t count = 0;
  /// handle() wall and thread CPU time, summed (run_handshake only).
  double handle_us = 0.0;
  double handle_cpu_us = 0.0;
  std::uint64_t handle_n = 0;

  void add(const net::Envelope& challenge, const net::Envelope& response,
           double client_us);
  void merge(const HandshakeLog& other);
};

/// One AuthChallenge -> handle() -> complete exchange, timed into `log`
/// (the set-up handshakes of clinical_session and fleet_mixed).
bool run_handshake(cloud::CloudServer& server, core::SessionCrypto& crypto,
                   std::uint64_t session, HandshakeLog& log);

/// Decompose the logged exchanges (the server's key resolution, MAC
/// check and handshake crypto, on each exchange's own nonces) and set
/// crypto.handshake_server_us, core.handshake_client_us and, for logs
/// filled by run_handshake, the handshake class's handle() times.
void report_handshakes(cloud::CloudServer& server, std::uint64_t seed,
                       const HandshakeLog& log, RunReport& report,
                       double& mac_bytes);

/// Total bytes of the regular files under `dir`.
double directory_bytes(const std::filesystem::path& dir);

/// Run `setup` kSetupReps times, timing each into report.setup_s, and
/// keep only the last result.
template <class Setup>
auto repeat_setup(RunReport& report, Setup&& setup) {
  decltype(setup(std::size_t{0})) kept;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    kept.reset();  // the previous set-up's state directory goes first
    const std::uint64_t start = now_ns();
    kept = setup(rep);
    report.setup_s.push_back(us_between(start, now_ns()) / 1e6);
  }
  return kept;
}

/// Run the timed phase, recording OS counters, service counters and
/// journal growth around it. The peak RSS restarts at the timed phase's
/// start, after the heap's free memory went back to the OS, so set-up's
/// peak does not count. peak_rss_mb is read once `rss_mark_ops` ops have
/// completed: the session cache and the record store grow with every op,
/// so a later reading would charge a faster program more memory.
template <class Op>
void timed_phase(const RunConfig& config, std::size_t clients,
                 std::uint64_t rss_mark_ops, Service& service,
                 RunReport& report, Op&& op) {
  LoopConfig loop;
  loop.mark_ops = rss_mark_ops;
  loop.clients = clients;
  loop.seconds = config.seconds;
  loop.ops_per_client = config.ops;
  loop.trace = config.trace;
  report.stats_before = service.server->stats();
  const std::uint64_t evictions_before =
      service.server->session_cache().evictions();
  const double bytes_before = directory_bytes(service.dir);
  reset_peak_rss();
  report.os_before = OsCounters::now();
  report.timing = ClosedLoop::run(loop, report.logs, op);
  report.os_after = OsCounters::now();
  report.journal_bytes = directory_bytes(service.dir) - bytes_before;
  report.evictions =
      service.server->session_cache().evictions() - evictions_before;
  report.stats_after = service.server->stats();
}

}  // namespace medsen::perfbench
