// Fleet-scale closed-loop load harness for the sharded cloud service
// layer (ROADMAP open item 1). Provisions 10^4..10^6 devices, then
// drives mixed traffic — fresh uploads, idempotent replays, auth passes,
// malformed payloads, bad MACs, unknown devices — from a configurable
// worker count with Poisson or bursty arrivals, optionally through a
// lossy net::FaultyLink. Reports throughput, p50/p99/p999 latency, and
// the server's shed/replay/eviction counters as BENCH_fleet_load.json
// (the shared bench::JsonCounters schema), seeding the perf trajectory
// future re-anchors regress against.
//
// The whole harness runs with `allow_legacy_plane = false`: every
// command rides a negotiated session (devices handshake lazily on first
// use, and the fleet is partitioned across workers because SessionCrypto
// is single-threaded state). A slice of mixed traffic still sends
// counter-0 static-key envelopes on purpose — the server must refuse
// each one with kAuthRequired, and the harness fails if any slips
// through.
//
// A second scaling phase isolates the service layer itself: a replay
// storm (registry lookup + MAC verify + session-cache hit, no analysis)
// measured with shards=1 — the old single-mutex layout — versus the
// sharded default, emitting `scaling.speedup`. On a multi-core host the
// sharded layout must win by at least 1.3x (four workers on a 4-vCPU
// host read 1.4-2.0x); on one core the two are equivalent.
//
// Session phases exercise the EV2-style session plane: a handshake
// storm over an enrolled (zero-stored-secret) fleet emitting
// `session.handshakes_per_sec`, then a rekey storm that rotates the
// master key between rounds — every rotation stampedes the fleet
// through kAuthRequired -> re-handshake -> resend — while a slice of
// traffic replays burned command counters and must be rejected
// (`session.counter_rejections`). A duplicate storm closes the session
// phases: every worker sends one identical AuthChallenge at once, then
// one (device, session, counter) with its own payload at once, and each
// must be processed exactly once (`session.duplicates_processed`, held
// at zero). A clinic phase ends them: a few devices each run a few
// hundred sequential commands on one session against a server with the
// default cache capacity, and `session.cached_exchanges_per_device` must
// stay at one handshake plus one anti-replay window of commands. A last
// phase fills a fresh DeviceRegistry (default shards and capacity) with
// completed exchanges carrying an 80-byte report and exports the
// resident memory each one costs (`session.cache_bytes_per_exchange`).
//
// Everything is deterministic for a fixed seed and worker count except
// wall-clock timing itself.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "cloud/server.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"
#include "util/cpu_features.h"
#include "net/faulty_link.h"

using namespace medsen;

namespace {

struct Options {
  std::size_t devices = 100000;
  std::size_t workers = 0;  ///< 0 = hardware concurrency
  std::size_t shards = 0;   ///< mixed-phase shard count (0 = default)
  std::size_t requests = 200000;
  std::size_t cache_capacity = 1u << 16;
  std::size_t max_inflight = 0;
  std::uint64_t seed = 0x464C4545544C44ull;  // "FLEETLD"
  std::string arrivals = "poisson";          // poisson | bursty
  double mean_think_us = 0.0;  ///< Poisson think time (0 = saturating)
  bool faulty = false;
  bool quality_gate = false;
  bool scaling = true;
  std::size_t scaling_devices = 20000;
  std::size_t scaling_requests = 100000;
  bool session = true;
  std::size_t session_devices = 5000;
  std::size_t session_commands = 50000;
  std::size_t rekey_rounds = 3;
  std::string out = "BENCH_fleet_load.json";
};

[[noreturn]] void usage() {
  std::printf(
      "fleet_load [--devices N] [--workers N] [--shards N] [--requests N]\n"
      "           [--cache-capacity N] [--max-inflight N] [--seed S]\n"
      "           [--arrivals poisson|bursty] [--mean-think-us U]\n"
      "           [--faulty] [--quality-gate] [--no-scaling]\n"
      "           [--scaling-devices N] [--scaling-requests N]\n"
      "           [--no-session] [--session-devices N]\n"
      "           [--session-commands N] [--rekey-rounds N]\n"
      "           [--out PATH] [--smoke]\n"
      "--smoke: short deterministic CI preset (10^4 devices, fixed seed)\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  const auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--devices") {
      options.devices = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--workers") {
      options.workers = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--shards") {
      options.shards = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--requests") {
      options.requests = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--cache-capacity") {
      options.cache_capacity = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--max-inflight") {
      options.max_inflight = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--arrivals") {
      options.arrivals = next_value(i);
    } else if (arg == "--mean-think-us") {
      options.mean_think_us = std::strtod(next_value(i), nullptr);
    } else if (arg == "--faulty") {
      options.faulty = true;
    } else if (arg == "--quality-gate") {
      options.quality_gate = true;
    } else if (arg == "--no-scaling") {
      options.scaling = false;
    } else if (arg == "--scaling-devices") {
      options.scaling_devices = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--scaling-requests") {
      options.scaling_requests = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--no-session") {
      options.session = false;
    } else if (arg == "--session-devices") {
      options.session_devices = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--session-commands") {
      options.session_commands = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--rekey-rounds") {
      options.rekey_rounds = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--out") {
      options.out = next_value(i);
    } else if (arg == "--smoke") {
      options.devices = 10000;
      options.requests = 20000;
      options.scaling_devices = 2000;
      options.scaling_requests = 20000;
      options.session_devices = 1000;
      options.session_commands = 10000;
      options.workers = options.workers == 0 ? 2 : options.workers;
    } else {
      usage();
    }
  }
  if (options.arrivals != "poisson" && options.arrivals != "bursty") usage();
  return options;
}

/// Deterministic per-worker RNG (SplitMix64): the lint-approved seeded
/// generators live in src/crypto; the bench only needs cheap uniform
/// draws with no cross-run drift.
struct SplitMix {
  std::uint64_t state;

  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Exponential with the given mean (Poisson inter-arrival think time).
  double exponential(double mean) {
    return -mean * std::log(1.0 - uniform());
  }
};

/// The fleet's epoch-0 master key: the only key material the server
/// holds.
std::vector<std::uint8_t> master_key(std::uint64_t seed) {
  SplitMix rng{seed};
  std::vector<std::uint8_t> key(16);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(rng.next() & 0xFF);
  return key;
}

/// The key a device holds, diversified from the fleet master.
std::vector<std::uint8_t> device_key(std::uint64_t device_id,
                                     std::uint64_t seed) {
  return crypto::diversify_device_key(master_key(seed), device_id, 0);
}

/// A small but analyzable acquisition: one carrier, ~2 s at 450 Hz, a
/// couple of particle dips plus ADC-grain noise so the quality gate (when
/// enabled) sees a live signal. Built once and shared by every upload —
/// the harness measures the service layer, not series generation.
util::MultiChannelSeries upload_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  const std::size_t n = 900;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (const double center : {0.6, 1.3}) {
      const double z = (t - center) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

cloud::CloudServer make_server(const Options& options, std::size_t shards,
                               std::size_t cache_capacity) {
  cloud::ServiceConfig service;
  service.quality_gate = options.quality_gate;
  service.max_inflight = options.max_inflight;
  service.shards = shards;
  service.session_cache_capacity = cache_capacity;
  service.allow_legacy_plane = false;
  cloud::AnalysisConfig analysis;
  analysis.threads = 1;  // the workers are the parallelism under test
  return cloud::CloudServer(analysis, auth::CytoAlphabet{},
                            auth::ParticleClassifier::train({}),
                            auth::VerifierConfig{}, nullptr, service);
}

struct WorkerResult {
  std::vector<double> latencies_us;
  std::uint64_t sent = 0;
  std::uint64_t transport_dropped = 0;  ///< FaultyLink ate the request
  std::uint64_t transport_garbled = 0;  ///< arrived undecodable
  std::uint64_t handshakes = 0;         ///< lazy first-use negotiations
  std::uint64_t handshake_failures = 0;
  std::uint64_t legacy_attempts = 0;  ///< deliberate static-key sends
  std::uint64_t legacy_refused = 0;   ///< ... answered kAuthRequired
};

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

Percentiles percentiles(std::vector<double>& values) {
  Percentiles result;
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    return values[rank];
  };
  result.p50 = at(0.50);
  result.p99 = at(0.99);
  result.p999 = at(0.999);
  return result;
}

/// One closed-loop worker: pick a device from this worker's partition,
/// negotiate a session on first use, build (or replay) a request,
/// optionally push it through a lossy link, time handle(), think, loop.
WorkerResult run_worker(cloud::CloudServer& server, const Options& options,
                        std::size_t worker_index, std::size_t worker_count,
                        std::size_t request_count,
                        const std::vector<std::uint8_t>& upload_payload,
                        const std::vector<std::uint8_t>& auth_payload) {
  WorkerResult result;
  result.latencies_us.reserve(request_count);
  SplitMix rng{options.seed ^ (0xABCD0000ull + worker_index)};

  // Session ids are globally unique: the worker index occupies the top
  // bits so no two workers (or phases) ever collide in the cache.
  std::uint64_t next_session = (worker_index + 1) << 40;

  // The worker's slice of the fleet (ids congruent to its index):
  // SessionCrypto is single-threaded state, so devices are partitioned,
  // never shared. Sessions are negotiated lazily the first time a device
  // appears in the traffic mix; the handshake itself runs outside the
  // per-request latency window (it models the device's app start-up, not
  // a command round trip).
  std::unordered_map<std::uint64_t, std::unique_ptr<core::SessionCrypto>>
      sessions;
  const auto session_for =
      [&](std::uint64_t device) -> core::SessionCrypto* {
    auto& slot = sessions[device];
    if (slot == nullptr)
      slot = std::make_unique<core::SessionCrypto>(
          device, device_key(device, options.seed), /*key_epoch=*/0,
          options.seed ^ device);
    if (!slot->active()) {
      ++result.handshakes;
      if (!slot->complete(
              server.handle(slot->make_challenge(next_session++)))) {
        ++result.handshake_failures;
        return nullptr;
      }
    }
    return slot.get();
  };

  // The worker's recent successful uploads, replayed byte-identically to
  // model the reliable transport's retries.
  std::vector<net::Envelope> history;
  constexpr std::size_t kHistory = 64;
  std::size_t history_next = 0;

  std::unique_ptr<net::FaultyLink> link;
  if (options.faulty) {
    net::FaultConfig faults;
    faults.drop_rate = 0.01;
    faults.corrupt_rate = 0.01;
    faults.duplicate_rate = 0.005;
    faults.seed = options.seed ^ (0x11E7u + worker_index);
    link = std::make_unique<net::FaultyLink>(net::lte_uplink(), faults,
                                             nullptr);
  }

  using Clock = std::chrono::steady_clock;
  const auto burst_epoch = Clock::now();

  for (std::size_t i = 0; i < request_count; ++i) {
    // Arrival pacing. Poisson: exponential think time between closed-loop
    // requests (0 = saturating). Bursty: 50 ms on at full rate, 50 ms off.
    if (options.arrivals == "poisson") {
      if (options.mean_think_us > 0.0) {
        const double think = rng.exponential(options.mean_think_us);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(think));
      }
    } else {
      const double phase_ms =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    burst_epoch)
              .count();
      const double in_period = std::fmod(phase_ms, 100.0);
      if (in_period >= 50.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(100.0 - in_period));
      }
    }

    // Draw from this worker's partition only (ids congruent to the
    // worker index modulo the worker count).
    const std::uint64_t device =
        worker_index +
        worker_count * (rng.next() % (options.devices / worker_count));
    const double op = rng.uniform();

    net::Envelope request;
    bool cacheable_upload = false;
    bool legacy_attempt = false;
    core::SessionCrypto* crypto = nullptr;
    if (op < 0.20 && !history.empty()) {
      // Replay: byte-identical re-send of an earlier success. While the
      // exchange is still cached this is answered from the idempotency
      // cache; once evicted, the burned counter dies in the anti-replay
      // window instead — both are correct session-plane behavior.
      request = history[rng.next() % history.size()];
    } else if (op < 0.90) {
      crypto = session_for(device);
      if (crypto == nullptr) continue;  // handshake failed; counted
      if (op < 0.70) {
        request = net::make_envelope(
            net::MessageType::kSignalUpload, crypto->session_id(), device,
            upload_payload, crypto->session_mac_key(),
            crypto->next_counter());
        cacheable_upload = true;
      } else if (op < 0.75) {
        request = net::make_envelope(
            net::MessageType::kAuthPass, crypto->session_id(), device,
            auth_payload, crypto->session_mac_key(),
            crypto->next_counter());
      } else if (op < 0.825) {
        // MAC-valid garbage on the session: the kMalformed path. The
        // client-side counter burns; the window accepts the gap.
        request = net::make_envelope(
            net::MessageType::kSignalUpload, crypto->session_id(), device,
            {0xDE, 0xAD}, crypto->session_mac_key(),
            crypto->next_counter());
      } else {
        request = net::make_envelope(
            net::MessageType::kSignalUpload, crypto->session_id(), device,
            upload_payload, crypto->session_mac_key(),
            crypto->next_counter());
        request.payload[0] ^= 0xFF;  // tampering relay: kBadMac
      }
    } else if (op < 0.95) {
      // Deliberate legacy-plane send: a counter-0 command on the
      // device's long-term key. With allow_legacy_plane=false the server
      // must refuse every one of these with kAuthRequired.
      legacy_attempt = true;
      ++result.legacy_attempts;
      request = net::make_envelope(net::MessageType::kSignalUpload,
                                   next_session++, device, upload_payload,
                                   device_key(device, options.seed));
    } else {
      const std::vector<std::uint8_t> stray_key = {0x55, 0x66};
      request = net::make_envelope(
          net::MessageType::kSignalUpload, next_session++,
          static_cast<std::uint64_t>(options.devices) + 1 +
              (rng.next() % 1000),
          upload_payload, stray_key);  // never enrolled
    }

    const auto note_response = [&](const net::Envelope& arrived,
                                   const net::Envelope& response) {
      if (cacheable_upload &&
          response.type == net::MessageType::kAnalysisResult) {
        if (history.size() < kHistory) {
          history.push_back(arrived);
        } else {
          history[history_next] = arrived;
          history_next = (history_next + 1) % kHistory;
        }
      }
      if (response.type == net::MessageType::kError &&
          net::ErrorPayload::deserialize(response.payload).code ==
              net::ErrorCode::kAuthRequired) {
        if (legacy_attempt) {
          ++result.legacy_refused;
        } else if (crypto != nullptr) {
          crypto->invalidate();  // session died server-side; re-handshake
        }
      }
    };

    ++result.sent;
    const auto start = Clock::now();
    if (link) {
      link->send(request.serialize());
      bool handled = false;
      while (auto datagram = link->try_receive()) {
        try {
          const auto arrived = net::Envelope::deserialize(*datagram);
          const auto response = server.handle(arrived);
          handled = true;
          note_response(arrived, response);
        } catch (const std::exception&) {
          ++result.transport_garbled;  // structural corruption
        }
      }
      if (!handled && result.transport_garbled == 0) ++result.transport_dropped;
    } else {
      note_response(request, server.handle(request));
    }
    result.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }
  return result;
}

/// Replay-storm throughput at a given shard count: the pure service-layer
/// path (admission + registry lookup + MAC verify + cache hit), no
/// analysis, so shard-lock contention is the dominant cost and the
/// shards=1 baseline exposes the old single-mutex layout. Each device
/// handshakes once during setup and the storm replays its first
/// session-plane command byte-identically — a cache hit every time, the
/// same hot path the old static-key storm measured.
double replay_storm_rps(const Options& options, std::size_t shards,
                        std::size_t workers,
                        const std::vector<std::uint8_t>& upload_payload) {
  auto server = make_server(options, shards,
                            /*cache_capacity=*/0);  // unbounded: no evictions
  const std::size_t devices = options.scaling_devices;
  std::vector<net::Envelope> replays(devices);
  for (std::uint64_t device = 0; device < devices; ++device) {
    const auto key =
        bench::enroll_device(server, device, master_key(options.seed));
    core::SessionCrypto crypto(device, key, /*key_epoch=*/0,
                               options.seed ^ device);
    if (!crypto.complete(server.handle(
            crypto.make_challenge((1ull << 62) + device)))) {
      std::fprintf(stderr, "scaling: handshake failed for device %llu\n",
                   static_cast<unsigned long long>(device));
      std::exit(1);
    }
    replays[device] = net::make_envelope(
        net::MessageType::kSignalUpload, crypto.session_id(), device,
        upload_payload, crypto.session_mac_key(), crypto.next_counter());
  }
  // Prime: one processed exchange per device fills the cache.
  {
    std::vector<std::thread> primers;
    std::atomic<std::size_t> cursor{0};
    for (std::size_t w = 0; w < workers; ++w) {
      primers.emplace_back([&] {
        for (std::size_t i = cursor.fetch_add(1); i < devices;
             i = cursor.fetch_add(1))
          (void)server.handle(replays[i]);
      });
    }
    for (auto& primer : primers) primer.join();
  }

  const std::size_t per_worker = options.scaling_requests / workers;
  std::vector<std::thread> storm;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    storm.emplace_back([&, w] {
      SplitMix rng{options.seed ^ (0x5708Au + w)};
      for (std::size_t i = 0; i < per_worker; ++i)
        (void)server.handle(replays[rng.next() % devices]);
    });
  }
  for (auto& thread : storm) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto stats = server.stats();
  if (stats.replays_served <
      static_cast<std::uint64_t>(per_worker * workers)) {
    std::printf("warning: replay storm had %llu non-replay responses\n",
                static_cast<unsigned long long>(
                    per_worker * workers - stats.replays_served));
  }
  return static_cast<double>(per_worker * workers) / elapsed;
}

/// Outcome of the session-plane phases (handshake storm + rekey storm).
struct SessionPhaseResult {
  double handshake_elapsed_s = 0.0;
  double handshakes_per_sec = 0.0;
  std::uint64_t handshakes = 0;
  double rekey_elapsed_s = 0.0;
  double commands_per_sec = 0.0;
  std::uint64_t commands_ok = 0;
  std::uint64_t rehandshakes = 0;
  std::uint64_t auth_required_errors = 0;
  std::uint64_t stale_attacks = 0;
  /// Stale-counter attacks answered with anything but kStaleCounter,
  /// kSessionConflict or kAuthRequired (must stay 0).
  std::uint64_t stale_attacks_accepted = 0;
  std::uint64_t counter_rejections = 0;  ///< server-side, from stats()
  std::uint64_t duplicate_rounds = 0;
  /// Extra handshakes or analyses a duplicate round caused beyond the
  /// one each (device, session, counter) gets (must stay 0).
  std::uint64_t duplicates_processed = 0;
};

/// Phase 4+5: the EV2-style session plane under fleet load.
///
/// Handshake storm: every device is *enrolled* (diversified keys — the
/// registry stores zero per-device secrets) and runs a full
/// AuthChallenge/AuthResponse handshake; throughput is
/// `handshakes_per_sec`. Rekey storm: the fleet drives session-plane
/// commands while the master key rotates every round, so each rotation
/// stampedes every device through kAuthRequired -> re-handshake ->
/// resend; a slice of traffic deliberately replays burned counters and
/// must die with kStaleCounter (`counter_rejections`). Duplicate storm:
/// every worker sends the same AuthChallenge, then the same counter, at
/// once, and any second handshake or analysis counts in
/// `duplicates_processed`.
SessionPhaseResult run_session_phases(
    const Options& options, std::size_t workers,
    const std::vector<std::uint8_t>& upload_payload) {
  SessionPhaseResult result;
  // A small idempotency cache on purpose: replayed counters whose cached
  // exchange is still resident are answered as conflicts/replays by the
  // cache layer, so to exercise the anti-replay *window* (kStaleCounter)
  // the storm must churn entries out first. Nothing in this phase relies
  // on ARQ replays, so eviction costs nothing.
  auto server = make_server(options, options.shards, /*cache_capacity=*/512);
  const std::vector<std::uint8_t> master(16, 0x5A);
  constexpr std::uint32_t kEpoch = 1;
  server.rotate_master_key(kEpoch, master);

  const std::size_t devices = options.session_devices;
  std::vector<std::unique_ptr<core::SessionCrypto>> cryptos;
  cryptos.reserve(devices);
  for (std::uint64_t id = 0; id < devices; ++id) {
    server.enroll_device(id);
    cryptos.push_back(std::make_unique<core::SessionCrypto>(
        id, crypto::diversify_device_key(master, id, kEpoch), kEpoch,
        options.seed ^ id));
  }

  // Session ids live far above the other phases' ranges; each device
  // re-keys at (base + device * rounds + rekey_count).
  const auto session_base = [&](std::uint64_t id) {
    return (1ull << 52) + id * (options.rekey_rounds + 2);
  };
  const auto handshake = [&](std::uint64_t id, std::uint64_t ordinal) {
    auto& crypto = *cryptos[id];
    crypto.invalidate();
    return crypto.complete(
        server.handle(crypto.make_challenge(session_base(id) + ordinal)));
  };

  // --- Handshake storm ------------------------------------------------
  std::atomic<std::uint64_t> completed{0};
  {
    std::vector<std::thread> threads;
    std::atomic<std::size_t> cursor{0};
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (std::size_t id = cursor.fetch_add(1); id < devices;
             id = cursor.fetch_add(1))
          if (handshake(id, 0)) completed.fetch_add(1);
      });
    }
    for (auto& thread : threads) thread.join();
    result.handshake_elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  result.handshakes = completed.load();
  result.handshakes_per_sec =
      static_cast<double>(result.handshakes) / result.handshake_elapsed_s;

  // --- Rekey storm ----------------------------------------------------
  // Device id space is partitioned across workers (each SessionCrypto is
  // single-threaded state); the master rotation between rounds is the
  // fleet-wide synchronization point.
  std::atomic<std::uint64_t> ok{0}, rehandshakes{0}, auth_required{0},
      stale{0}, stale_accepted{0};
  const std::size_t rounds = options.rekey_rounds;
  const std::size_t per_round =
      std::max<std::size_t>(1, options.session_commands / (rounds + 1));
  std::uint32_t next_epoch = kEpoch + 1;
  const auto rekey_start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round <= rounds; ++round) {
    if (round > 0) {
      // Rotate: every live session dies; devices (still personalized
      // under kEpoch) must re-handshake through the grace window.
      server.rotate_master_key(next_epoch++, master);
    }
    std::vector<std::thread> threads;
    const std::size_t per_worker = per_round / workers + 1;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w, round] {
        SplitMix rng{options.seed ^ (0x5E55u + w * 131 + round)};
        for (std::size_t i = 0; i < per_worker; ++i) {
          const std::uint64_t id = w + workers * (rng.next() %
                                                  (devices / workers + 1));
          if (id >= devices) continue;
          auto& crypto = *cryptos[id];
          if (!crypto.active()) continue;  // handshake failed earlier
          const double op = rng.uniform();
          if (op < 0.05 && crypto.last_counter() > 1) {
            // Replay attack: a *fresh* envelope reusing a burned
            // counter (not byte-identical to the cached exchange, so
            // the idempotency cache cannot answer it).
            auto attack = net::make_envelope(
                net::MessageType::kSignalUpload, crypto.session_id(),
                id, {0xDE, 0xAD, 0xBE, 0xEF}, crypto.session_mac_key(),
                /*counter=*/1);
            const auto response = server.handle(attack);
            stale.fetch_add(1);
            // The window refuses it, or the cache still holds the
            // counter's exchange, or a rotation dropped the session.
            bool refused = false;
            if (response.type == net::MessageType::kError) {
              const auto code =
                  net::ErrorPayload::deserialize(response.payload).code;
              refused = code == net::ErrorCode::kStaleCounter ||
                        code == net::ErrorCode::kSessionConflict ||
                        code == net::ErrorCode::kAuthRequired;
            }
            if (!refused) stale_accepted.fetch_add(1);
            continue;
          }
          auto request = net::make_envelope(
              net::MessageType::kSignalUpload, crypto.session_id(), id,
              upload_payload, crypto.session_mac_key(),
              crypto.next_counter());
          auto response = server.handle(request);
          if (response.type == net::MessageType::kError) {
            const auto error =
                net::ErrorPayload::deserialize(response.payload);
            if (error.code == net::ErrorCode::kAuthRequired) {
              auth_required.fetch_add(1);
              if (handshake(id, 1 + round)) {
                rehandshakes.fetch_add(1);
                request = net::make_envelope(
                    net::MessageType::kSignalUpload, crypto.session_id(),
                    id, upload_payload, crypto.session_mac_key(),
                    crypto.next_counter());
                response = server.handle(request);
              }
            }
          }
          if (response.type == net::MessageType::kAnalysisResult)
            ok.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  result.rekey_elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    rekey_start)
          .count();
  result.commands_ok = ok.load();
  result.rehandshakes = rehandshakes.load();
  result.auth_required_errors = auth_required.load();
  result.stale_attacks = stale.load();
  result.stale_attacks_accepted = stale_accepted.load();
  result.commands_per_sec =
      static_cast<double>(result.commands_ok) / result.rekey_elapsed_s;
  result.counter_rejections = server.stats().counter_rejections;

  // --- Duplicate storm --------------------------------------------------
  // Each round, every racer is released by one barrier with the same
  // AuthChallenge, then again with the same (device, session, counter)
  // under its own payload. The server must run one handshake and one
  // analysis per round; the other copies are told to retry, served the
  // completed exchange, or refused as conflicts.
  constexpr std::size_t kDuplicateRounds = 200;
  const std::size_t racers = std::max<std::size_t>(workers, 2);
  std::vector<std::vector<std::uint8_t>> variants;
  for (std::size_t w = 0; w < racers; ++w) {
    auto variant = net::SignalUploadPayload::deserialize(upload_payload);
    auto series = net::deserialize_series(variant.data);
    series.channels[0][0] += 1e-6 * static_cast<double>(w);
    variant.data = net::serialize_series(series);
    variants.push_back(variant.serialize());
  }
  std::vector<net::Envelope> sends(racers);
  std::vector<net::Envelope> answers(racers);
  std::barrier sync(static_cast<std::ptrdiff_t>(racers + 1));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < racers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t step = 0; step < 2 * kDuplicateRounds; ++step) {
        sync.arrive_and_wait();
        answers[w] = server.handle(sends[w]);
        sync.arrive_and_wait();
      }
    });
  }
  const auto send_all = [&] {
    sync.arrive_and_wait();  // release the racers
    sync.arrive_and_wait();  // every copy answered
  };
  for (std::size_t round = 0; round < kDuplicateRounds; ++round) {
    auto& crypto = *cryptos[round % devices];
    const std::uint64_t handshakes = server.stats().handshakes_completed;
    crypto.invalidate();
    std::fill(sends.begin(), sends.end(),
              crypto.make_challenge((1ull << 53) + round));
    send_all();
    const std::uint64_t ran = server.stats().handshakes_completed - handshakes;
    if (ran > 1) result.duplicates_processed += ran - 1;
    // Every copy has been answered, so a retry of an in-flight refusal
    // meets the completed slot.
    const auto in_flight = [](const net::Envelope& e) {
      return e.type == net::MessageType::kError &&
             net::ErrorPayload::deserialize(e.payload).code ==
                 net::ErrorCode::kOverloaded;
    };
    auto answer = answers[0];
    for (int retry = 0; retry < 10 && in_flight(answer); ++retry)
      answer = server.handle(sends[0]);
    (void)crypto.complete(answer);

    const std::uint32_t counter = crypto.next_counter();
    for (std::size_t w = 0; w < racers; ++w)
      sends[w] = net::make_envelope(net::MessageType::kSignalUpload,
                                    crypto.session_id(), crypto.device_id(),
                                    variants[w], crypto.session_mac_key(),
                                    counter);
    send_all();
    const auto analyzed = static_cast<std::uint64_t>(std::count_if(
        answers.begin(), answers.end(), [](const net::Envelope& e) {
          return e.type == net::MessageType::kAnalysisResult;
        }));
    if (analyzed > 1) result.duplicates_processed += analyzed - 1;
  }
  for (auto& thread : threads) thread.join();
  result.duplicate_rounds = kDuplicateRounds;
  return result;
}

struct ClinicPhaseResult {
  std::uint64_t devices = 0;
  std::uint64_t commands_ok = 0;
  double cached_exchanges_per_device = 0.0;
};

/// Phase 6: clinics. Each device negotiates one session and sends a long
/// series of sequential commands on it, as a clinic's phone does through
/// a day of patients, to a server with the default cache capacity. Only
/// the last kWindowSize counters of a session can still be replayed, so
/// that and the handshake are all the cache may hold per device.
ClinicPhaseResult run_clinic_phase(
    const Options& options, std::size_t workers,
    const std::vector<std::uint8_t>& upload_payload) {
  constexpr std::uint64_t kClinics = 4;
  constexpr std::uint32_t kCommands = 300;
  constexpr std::uint32_t kEpoch = 1;
  auto server = make_server(options, options.shards,
                            cloud::ServiceConfig{}.session_cache_capacity);
  const std::vector<std::uint8_t> master(16, 0x3C);
  server.rotate_master_key(kEpoch, master);
  for (std::uint64_t id = 0; id < kClinics; ++id) server.enroll_device(id);

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> cursor{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < std::min<std::size_t>(workers, kClinics); ++w) {
    threads.emplace_back([&] {
      for (std::uint64_t id = cursor.fetch_add(1); id < kClinics;
           id = cursor.fetch_add(1)) {
        core::SessionCrypto crypto(
            id, crypto::diversify_device_key(master, id, kEpoch), kEpoch,
            options.seed ^ id);
        if (!crypto.complete(
                server.handle(crypto.make_challenge((1ull << 54) + id))))
          continue;
        for (std::uint32_t i = 0; i < kCommands; ++i) {
          const auto response = server.handle(net::make_envelope(
              net::MessageType::kSignalUpload, crypto.session_id(), id,
              upload_payload, crypto.session_mac_key(),
              crypto.next_counter()));
          if (response.type == net::MessageType::kAnalysisResult)
            ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ClinicPhaseResult result;
  result.devices = kClinics;
  result.commands_ok = ok.load();
  result.cached_exchanges_per_device =
      static_cast<double>(server.devices().cache_size()) /
      static_cast<double>(kClinics);
  return result;
}

/// Phase 7: memory per cached exchange. A fresh registry with the
/// default shards and capacity is filled to capacity, through
/// reserve()/complete() as handle() drives them, with completed
/// counter-0 exchanges whose responses carry an 80-byte payload (a
/// fleet_mixed upload's report), one exchange per device. Resident
/// memory is read after malloc_trim before and after the fill.
struct CacheMemoryResult {
  std::size_t exchanges = 0;
  double bytes_per_exchange = 0.0;
};

CacheMemoryResult measure_cache_memory() {
  constexpr std::size_t kReportBytes = 80;
  const std::vector<std::uint8_t> mac_key(32, 0x7e);
  cloud::DeviceRegistry registry;
  const std::size_t per_shard = registry.per_shard_capacity();
  std::vector<std::size_t> held(registry.shard_count(), 0);
  std::size_t remaining = per_shard * registry.shard_count();
  const double before = bench::resident_bytes();
  for (std::uint64_t device = 1; remaining != 0; ++device) {
    std::size_t& shard = held[registry.shard_of(device)];
    if (shard == per_shard) continue;  // fill every shard exactly
    const auto request =
        net::make_envelope(net::MessageType::kSignalUpload, device, device,
                           {0x01, 0x02, 0x03, 0x04}, mac_key);
    std::vector<std::uint8_t> report(kReportBytes);
    for (std::size_t k = 0; k < report.size(); ++k)
      report[k] = static_cast<std::uint8_t>(device * 31 + k);
    const auto response =
        net::make_envelope(net::MessageType::kAnalysisResult, device, device,
                           std::move(report), mac_key);
    if (registry.reserve(request, false).state !=
        cloud::SlotState::kReserved)
      continue;
    registry.complete(request, response, false);
    ++shard;
    --remaining;
  }
  CacheMemoryResult result;
  result.exchanges = registry.cache_size();
  result.bytes_per_exchange = (bench::resident_bytes() - before) /
                              static_cast<double>(result.exchanges);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const std::size_t workers =
      options.workers != 0
          ? options.workers
          : std::max(1u, std::thread::hardware_concurrency());

  bench::header("Fleet-scale load harness",
                "the sharded service layer absorbs fleet traffic without "
                "serializing on global locks (ROADMAP item 1)");

  const auto series = upload_series();
  net::SignalUploadPayload upload;
  upload.compressed = false;
  upload.sample_rate_hz = 450.0;
  upload.data = net::serialize_series(series);
  const auto upload_payload = upload.serialize();
  net::AuthPassPayload pass;
  pass.upload = upload;
  pass.volume_ul = 1.0;
  const auto auth_payload = pass.serialize();

  auto server = make_server(options, options.shards, options.cache_capacity);

  // Phase 1: enroll the fleet under one master key.
  const auto provision_start = std::chrono::steady_clock::now();
  server.rotate_master_key(0, master_key(options.seed));
  for (std::uint64_t device = 0; device < options.devices; ++device)
    server.enroll_device(device);
  const double provision_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    provision_start)
          .count();
  std::printf("enrolled %zu devices in %.2f s (%zu registry shards)\n",
              options.devices, provision_s, server.devices().shard_count());

  // Phase 2: mixed closed-loop traffic.
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  const std::size_t per_worker = options.requests / workers;
  const auto mixed_start = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      results[w] = run_worker(server, options, w, workers, per_worker,
                              upload_payload, auth_payload);
    });
  }
  for (auto& thread : threads) thread.join();
  const double mixed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    mixed_start)
          .count();

  std::vector<double> latencies;
  std::uint64_t sent = 0, dropped = 0, garbled = 0;
  std::uint64_t handshakes = 0, handshake_failures = 0;
  std::uint64_t legacy_attempts = 0, legacy_refused = 0;
  for (auto& result : results) {
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    sent += result.sent;
    dropped += result.transport_dropped;
    garbled += result.transport_garbled;
    handshakes += result.handshakes;
    handshake_failures += result.handshake_failures;
    legacy_attempts += result.legacy_attempts;
    legacy_refused += result.legacy_refused;
  }
  const auto tail = percentiles(latencies);
  const double throughput = static_cast<double>(sent) / mixed_s;
  const auto stats = server.stats();

  std::printf(
      "mixed phase: %llu requests, %zu workers, %.2f s -> %.0f req/s\n"
      "  latency p50 %.1f us  p99 %.1f us  p999 %.1f us\n"
      "  processed %llu  replays %llu  errors %llu  shed %llu\n"
      "  cache size %zu  evictions %llu\n"
      "  sessions: %llu handshakes (%llu failed); legacy plane: "
      "%llu/%llu refused\n",
      static_cast<unsigned long long>(sent), workers, mixed_s, throughput,
      tail.p50, tail.p99, tail.p999,
      static_cast<unsigned long long>(stats.requests_processed),
      static_cast<unsigned long long>(stats.replays_served),
      static_cast<unsigned long long>(stats.errors_returned),
      static_cast<unsigned long long>(stats.requests_shed),
      server.devices().cache_size(),
      static_cast<unsigned long long>(server.devices().evictions()),
      static_cast<unsigned long long>(handshakes),
      static_cast<unsigned long long>(handshake_failures),
      static_cast<unsigned long long>(legacy_refused),
      static_cast<unsigned long long>(legacy_attempts));
  // Without link faults every deliberate static-key send must come back
  // kAuthRequired; one slipping through means the legacy plane is open.
  if (!options.faulty && legacy_refused != legacy_attempts) {
    std::fprintf(stderr,
                 "FAIL: %llu legacy-plane sends were not refused\n",
                 static_cast<unsigned long long>(legacy_attempts -
                                                 legacy_refused));
    return 1;
  }
  if (handshake_failures != 0) {
    std::fprintf(stderr, "FAIL: %llu session handshakes failed\n",
                 static_cast<unsigned long long>(handshake_failures));
    return 1;
  }

  bench::JsonCounters json("fleet_load");
  json.set_count("devices", options.devices);
  json.set_count("workers", workers);
  json.set_count("shards", server.devices().shard_count());
  json.set_count("cache_capacity", options.cache_capacity);
  json.set_text("arrivals", options.arrivals);
  json.set_count("faulty", options.faulty ? 1 : 0);
  // Which block kernels produced these numbers: the same CPUID probe the
  // dispatch in crypto/sha256.cpp and crypto/aes.cpp reads.
  const auto& cpu = util::cpu_features();
  json.set_text("crypto.sha256_backend", cpu.sha_ni ? "sha-ni" : "portable");
  json.set_text("crypto.aes_backend", cpu.aes_ni ? "aes-ni" : "portable");
  json.set("provision_s", provision_s);
  json.set_count("requests_sent", sent);
  json.set("elapsed_s", mixed_s);
  json.set("throughput_rps", throughput);
  json.set("latency_p50_us", tail.p50);
  json.set("latency_p99_us", tail.p99);
  json.set("latency_p999_us", tail.p999);
  json.set_count("processed", stats.requests_processed);
  json.set_count("replays", stats.replays_served);
  json.set_count("errors", stats.errors_returned);
  json.set_count("shed", stats.requests_shed);
  json.set_count("cache_entries", server.devices().cache_size());
  json.set_count("cache_evictions", server.devices().evictions());
  json.set_count("transport_dropped", dropped);
  json.set_count("transport_garbled", garbled);
  json.set_count("mixed.handshakes", handshakes);
  json.set_count("mixed.handshake_failures", handshake_failures);
  json.set_count("mixed.legacy_attempts", legacy_attempts);
  json.set_count("mixed.legacy_refused", legacy_refused);

  // Phase 3: shard-scaling proof. shards=1 is the pre-sharding layout
  // (every request on one registry mutex and one cache mutex).
  if (options.scaling) {
    const std::size_t sharded = util::default_shard_count();
    const double rps_single =
        replay_storm_rps(options, 1, workers, upload_payload);
    const double rps_sharded =
        replay_storm_rps(options, sharded, workers, upload_payload);
    const double speedup = rps_single > 0.0 ? rps_sharded / rps_single : 0.0;
    std::printf(
        "scaling: replay storm, %zu workers, %zu devices\n"
        "  shards=1   %.0f req/s\n"
        "  shards=%-3zu %.0f req/s\n"
        "  speedup %.2fx (expect >=1.3x on a multi-core host; ~1x on 1 "
        "core)\n",
        workers, options.scaling_devices, rps_single, sharded, rps_sharded,
        speedup);
    json.set_count("scaling.devices", options.scaling_devices);
    json.set_count("scaling.requests", options.scaling_requests);
    json.set_count("scaling.workers", workers);
    json.set_count("scaling.shards_baseline", 1);
    json.set_count("scaling.shards_sharded", sharded);
    json.set("scaling.throughput_shards1_rps", rps_single);
    json.set("scaling.throughput_sharded_rps", rps_sharded);
    json.set("scaling.speedup", speedup);
  }

  // Phases 4+5: the session plane — handshake storm, then a rekey storm
  // with master rotations and deliberate stale-counter replays.
  std::uint64_t session_accepted = 0;
  std::uint64_t duplicates = 0;
  if (options.session) {
    const auto session =
        run_session_phases(options, workers, upload_payload);
    session_accepted = session.stale_attacks_accepted;
    duplicates = session.duplicates_processed;
    std::printf(
        "session: %zu devices, %zu commands, %zu rekey rounds\n"
        "  handshakes   %llu in %.2fs (%.0f/s)\n"
        "  commands ok  %llu (%.0f/s), rehandshakes %llu, "
        "auth-required %llu\n"
        "  stale attacks sent %llu (accepted %llu), counter rejections "
        "%llu\n"
        "  duplicate rounds %llu, duplicates processed %llu\n",
        options.session_devices, options.session_commands,
        options.rekey_rounds,
        static_cast<unsigned long long>(session.handshakes),
        session.handshake_elapsed_s, session.handshakes_per_sec,
        static_cast<unsigned long long>(session.commands_ok),
        session.commands_per_sec,
        static_cast<unsigned long long>(session.rehandshakes),
        static_cast<unsigned long long>(session.auth_required_errors),
        static_cast<unsigned long long>(session.stale_attacks),
        static_cast<unsigned long long>(session.stale_attacks_accepted),
        static_cast<unsigned long long>(session.counter_rejections),
        static_cast<unsigned long long>(session.duplicate_rounds),
        static_cast<unsigned long long>(session.duplicates_processed));
    json.set_count("session.devices", options.session_devices);
    json.set_count("session.rekey_rounds", options.rekey_rounds);
    json.set_count("session.handshakes", session.handshakes);
    json.set("session.handshakes_per_sec", session.handshakes_per_sec);
    json.set_count("session.commands_ok", session.commands_ok);
    json.set("session.commands_per_sec", session.commands_per_sec);
    json.set_count("session.rehandshakes", session.rehandshakes);
    json.set_count("session.auth_required", session.auth_required_errors);
    json.set_count("session.stale_attacks", session.stale_attacks);
    json.set_count("session.stale_attacks_accepted",
                   session.stale_attacks_accepted);
    json.set_count("session.counter_rejections",
                   session.counter_rejections);
    json.set_count("session.duplicate_rounds", session.duplicate_rounds);
    json.set_count("session.duplicates_processed",
                   session.duplicates_processed);

    const auto clinic = run_clinic_phase(options, workers, upload_payload);
    std::printf(
        "clinics: %llu devices, %llu commands ok, %.1f cached exchanges "
        "per device\n",
        static_cast<unsigned long long>(clinic.devices),
        static_cast<unsigned long long>(clinic.commands_ok),
        clinic.cached_exchanges_per_device);
    json.set_count("session.clinic_devices", clinic.devices);
    json.set_count("session.clinic_commands_ok", clinic.commands_ok);
    json.set("session.cached_exchanges_per_device",
             clinic.cached_exchanges_per_device);

    const auto cache = measure_cache_memory();
    std::printf("cache memory: %zu exchanges, %.1f bytes per exchange\n",
                cache.exchanges, cache.bytes_per_exchange);
    json.set_count("session.cache_exchanges", cache.exchanges);
    json.set("session.cache_bytes_per_exchange", cache.bytes_per_exchange);
  }

  json.write(options.out);
  // Like the legacy-plane check above, but after the artifact is
  // written so the floor check sees the count too.
  if (session_accepted != 0) {
    std::fprintf(stderr, "FAIL: %llu stale-counter attacks were accepted\n",
                 static_cast<unsigned long long>(session_accepted));
    return 1;
  }
  if (duplicates != 0) {
    std::fprintf(stderr, "FAIL: %llu duplicate requests were processed\n",
                 static_cast<unsigned long long>(duplicates));
    return 1;
  }
  return 0;
}
