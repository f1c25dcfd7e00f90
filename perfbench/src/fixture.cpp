#include "fixture.h"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "core/session_crypto.h"
#include "crypto/chacha20.h"
#include "crypto/cmac.h"

namespace medsen::perfbench {

namespace fs = std::filesystem;

namespace {

std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t n) {
  SplitMix rng{seed};
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

std::vector<std::uint8_t> storage_key(std::uint64_t seed) {
  return seeded_bytes(seed ^ 0x53544F52414745ull, 16);  // "STORAGE"
}

std::unique_ptr<cloud::CloudServer> make_server(bool quality_gate) {
  cloud::ServiceConfig service;
  service.quality_gate = quality_gate;
  service.allow_legacy_plane = false;
  cloud::AnalysisConfig analysis;
  analysis.threads = 1;  // the client threads are the only parallelism
  return std::make_unique<cloud::CloudServer>(
      analysis, auth::CytoAlphabet{}, auth::ParticleClassifier::train({}),
      auth::VerifierConfig{}, nullptr, service);
}

cloud::DurabilityConfig durability(const fs::path& dir, std::uint64_t seed,
                                   bool fsync) {
  cloud::DurabilityConfig config;
  config.dir = dir.string();
  config.fsync = fsync;
  config.storage_key = storage_key(seed);
  return config;
}

/// The fixed, seeded op sequence. fsync and automatic compaction are
/// off, since only the bytes matter: one explicit compaction snapshots
/// the registry and the records, and the handshakes after it form the
/// journal tail.
void build_state_dir(const fs::path& dir, std::uint64_t seed) {
  auto config = durability(dir, seed, /*fsync=*/false);
  config.compact_after_records = 0;
  cloud::DurableState durable(config);
  auto server = make_server(false);
  server->attach_durability(durable);
  const auto master = master_key(seed);
  server->rotate_master_key(kEpoch, master);
  for (std::uint64_t id = 0; id < kFleetDevices + kRevokedDevices; ++id)
    server->enroll_device(id);
  for (std::uint64_t id = kFleetDevices; id < kFleetDevices + kRevokedDevices;
       ++id)
    server->revoke_device(id);
  for (std::size_t i = 0; i < kStoredRecords; ++i)
    server->store_result(patient_code(seed, i % kPatientCodes),
                         {i + 1, seeded_bytes(seed + i, 256)});
  durable.compact(*server);

  // One handshake per device: its burned ordinal is the journal tail
  // that recovery replays.
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kFleetClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::uint64_t id = c; id < kFleetDevices; id += kFleetClients) {
          core::SessionCrypto crypto(id, device_key(seed, id), kEpoch,
                                     seed ^ id);
          if (!crypto.complete(
                  server->handle(crypto.make_challenge((1ull << 56) + id))))
            ok = false;
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (!ok) throw std::runtime_error("state directory: a handshake failed");
}

}  // namespace

std::vector<std::uint8_t> master_key(std::uint64_t seed) {
  return seeded_bytes(seed ^ 0x4D4153544552ull, 16);  // "MASTER"
}

std::vector<std::uint8_t> device_key(std::uint64_t seed, std::uint64_t device) {
  return crypto::diversify_device_key(master_key(seed), device, kEpoch);
}

auth::CytoCode patient_code(std::uint64_t seed, std::uint64_t patient) {
  crypto::ChaChaRng rng(seed * 0x9E3779B97F4A7C15ull + patient);
  return auth::random_code(auth::CytoAlphabet{}, rng);
}

Service::~Service() {
  server.reset();
  durable.reset();
  std::error_code ignored;
  if (!dir.empty()) fs::remove_all(dir, ignored);
}

std::unique_ptr<Service> restart_service(const RunConfig& config,
                                         std::size_t rep, bool fsync,
                                         bool quality_gate,
                                         RunReport& report) {
  // One copy of the directory per client thread, each reopened
  // kReopenings times at once: recovery runs on one thread, and spreading
  // it over every CPU keeps one slow CPU from deciding the set-up time.
  std::vector<std::unique_ptr<Service>> copies(kFleetClients);
  for (std::size_t c = 0; c < copies.size(); ++c) {
    copies[c] = std::make_unique<Service>();
    copies[c]->dir = config.work_dir / ("state-" + std::to_string(rep) + "-" +
                                        std::to_string(c));
    fs::remove_all(copies[c]->dir);
  }
  const std::uint64_t build_start = now_ns();
  build_state_dir(copies[0]->dir, config.seed);
  report.build_s.push_back(us_between(build_start, now_ns()) / 1e6);
  for (std::size_t c = 1; c < copies.size(); ++c)
    fs::copy(copies[0]->dir, copies[c]->dir, fs::copy_options::recursive);

  std::vector<std::vector<double>> times(copies.size());
  std::vector<cloud::RecoveryStats> stats(copies.size());
  std::vector<std::exception_ptr> errors(copies.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < copies.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        auto& service = *copies[c];
        for (std::size_t i = 0; i < kReopenings; ++i) {
          service.server.reset();
          service.durable.reset();
          const std::uint64_t start = now_ns();
          service.durable = std::make_unique<cloud::DurableState>(
              durability(service.dir, config.seed, fsync));
          service.server = make_server(quality_gate);
          stats[c] = service.server->attach_durability(*service.durable);
          times[c].push_back(us_between(start, now_ns()) / 1e3);
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  for (const auto& t : times)
    report.recovery_ms.insert(report.recovery_ms.end(), t.begin(), t.end());
  report.recovery = stats[0];
  return std::move(copies[0]);
}

double directory_bytes(const fs::path& dir) {
  double total = 0.0;
  std::error_code error;
  for (fs::recursive_directory_iterator it(dir, error), end;
       !error && it != end; it.increment(error)) {
    if (it->is_regular_file(error))
      total += static_cast<double>(it->file_size(error));
  }
  return total;
}

}  // namespace medsen::perfbench
