// Restart-chaos harness for the crash-consistent durability layer
// (ISSUE 10 tentpole). Drives a scripted mix of durable traffic —
// diversified enrollment, master rotation, revocation, user
// enrollment, stored records, session handshakes, compactions — against
// a WAL-backed CloudServer, kills the "process" with a SimulatedCrash at
// every registered crash point (exhaustive site sweep; --smoke runs
// exactly that, deterministically), reconstructs the server from disk,
// and verifies five invariants after every crash:
//
//   1. No acked record lost: everything acknowledged before the crash
//      is present after recovery.
//   2. No ghost record: nothing appears that was neither acked nor the
//      single in-flight operation the crash interrupted.
//   3. No duplicated auth decision: handshake nonces (RndB) stay
//      globally unique across every restart — a rewound ordinal would
//      let an observer replay a recorded handshake. Every boot issues
//      two handshakes, more than the LSN advances between two boots, so
//      an ordinal counter seeded from the LSN is caught too.
//   4. Counters monotonic across restart: the journal LSN never rewinds
//      past an acknowledged write.
//   5. No plaintext secret bytes on disk: device keys and the master
//      key never appear in any state file (the store is sealed).
//   6. No sealing-nonce reuse: across every file a crash leaves behind
//      (including stranded .tmp snapshots recovery never reads), no
//      AES-CTR nonce ever covers two different ciphertexts — keystream
//      reuse would leak the sealed secrets (XOR of ciphertexts = XOR of
//      plaintexts) without any plaintext substring for invariant 5's
//      scan to find.
//
// The long mode adds seeded random crash schedules (arm_random) on top
// of the exhaustive sweep; the same --seed replays the same schedule. A
// separate no-crash sizing phase measures recovery itself and exports
// recovery.replay_ms / recovery.records_replayed for the CI floor check
// (tools/bench/check_crash_floor.py).
//
// In-process limits, stated honestly: a SimulatedCrash unwinds the stack
// instead of killing the process, so destructors close file descriptors
// that a real power cut would abandon — but the harness writes nothing
// after the throw, crash sites inside write_file_atomic and
// Journal::append physically tear the files mid-write, and the page
// cache is the same one a kill -9 would leave behind.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <span>
#include <utility>

#include "bench_common.h"
#include "cloud/durability.h"
#include "compress/crc32.h"
#include "cloud/persistence_error.h"
#include "cloud/server.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"
#include "net/messages.h"
#include "util/crash_point.h"
#include "util/fileio.h"

using namespace medsen;

namespace {

struct Options {
  std::uint64_t seed = 0x43485348414F53ull;  // "CHSHAOS"
  std::size_t random_runs = 100;
  double crash_probability = 0.02;
  std::size_t replay_records = 2000;
  std::string dir = "/tmp/medsen_crash_chaos";
  std::string out = "BENCH_crash_chaos.json";
  bool smoke = false;
};

[[noreturn]] void usage() {
  std::printf(
      "crash_chaos [--seed S] [--random-runs N] [--crash-prob P]\n"
      "            [--replay-records N] [--dir PATH] [--out PATH]\n"
      "            [--smoke]\n"
      "--smoke: exhaustive crash-site sweep only (deterministic CI "
      "preset)\n");
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
    if (arg == "--seed") {
      options.seed = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--random-runs") {
      options.random_runs = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--crash-prob") {
      options.crash_probability = std::strtod(next_value(i), nullptr);
    } else if (arg == "--replay-records") {
      options.replay_records = std::strtoull(next_value(i), nullptr, 10);
    } else if (arg == "--dir") {
      options.dir = next_value(i);
    } else if (arg == "--out") {
      options.out = next_value(i);
    } else if (arg == "--smoke") {
      options.smoke = true;
      options.random_runs = 0;
      options.replay_records = 300;
    } else {
      usage();
    }
  }
  return options;
}

// The cast of the scripted workload. The master key bytes are a
// distinctive ascending run so the on-disk secret scan (invariant 5)
// cannot false-negative on them.
constexpr std::uint64_t kDeviceA = 1;
constexpr std::uint64_t kDeviceB = 2;
constexpr std::uint64_t kEnrolled = 7;
constexpr std::uint32_t kEpoch = 1;
constexpr std::uint64_t kCryptoSeed = 0x1234;

std::vector<std::uint8_t> pattern_key(std::uint8_t base) {
  std::vector<std::uint8_t> key(16);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(base + i);
  return key;
}

std::vector<std::uint8_t> storage_key() {
  return std::vector<std::uint8_t>(32, 0x6B);
}

auth::CytoCode code_of(std::initializer_list<std::uint8_t> levels) {
  auth::CytoCode code;
  code.levels = levels;
  return code;
}

const char* kStateFiles[] = {"/journal.wal", "/records.snap", "/enroll.snap",
                             "/registry.snap"};

void remove_state(const std::string& dir) {
  for (const char* file : kStateFiles) {
    std::remove((dir + file).c_str());
    std::remove((dir + file + ".tmp").c_str());
  }
  std::remove((dir + "/seal.epoch").c_str());
  std::remove((dir + "/seal.epoch.tmp").c_str());
}

/// Is `needle` a contiguous byte run in any state file (including torn
/// .tmp leftovers a crash may have abandoned)?
bool on_disk(const std::string& dir,
             const std::vector<std::uint8_t>& needle) {
  for (const char* file : kStateFiles) {
    for (const char* suffix : {"", ".tmp"}) {
      const auto path = dir + file + suffix;
      if (!util::file_exists(path)) continue;
      const auto bytes = util::read_file(path);
      if (std::search(bytes.begin(), bytes.end(), needle.begin(),
                      needle.end()) != bytes.end())
        return true;
    }
  }
  return false;
}

// ---- Invariant 6: sealed-payload scanner ---------------------------
// Reads the on-disk formats from the outside (docs/PROTOCOL.md), the
// way an attacker with the disk would, so a regression in the sealing
// layer cannot hide behind its own accessors.

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(le32(p)) |
         (static_cast<std::uint64_t>(le32(p + 4)) << 32);
}

/// One sealed payload observed on disk: its CTR nonce plus a ciphertext
/// fingerprint (CRC32 + length) so the same nonce showing up again can
/// be classified as "same bytes, still there" vs "reused keystream".
struct SealedSighting {
  std::uint64_t nonce = 0;
  std::uint32_t crc = 0;
  std::size_t len = 0;
};

/// Record one flag-prefixed payload (u8 flag | u64 nonce | ciphertext)
/// if it is sealed and complete enough to fingerprint.
void note_flagged(std::span<const std::uint8_t> flagged,
                  std::vector<SealedSighting>& out) {
  if (flagged.size() < 9 || flagged[0] != 1) return;
  out.push_back({le64(flagged.data() + 1),
                 compress::crc32(flagged.subspan(9)), flagged.size() - 9});
}

/// Walk a journal's frames, collecting the sealed payload of every
/// CRC-complete record. A torn tail is skipped: its ciphertext cannot
/// be fingerprinted — the nonce it consumed is exactly why sealing uses
/// per-boot epoch partitions instead of max(observed)+1.
void scan_journal(const std::vector<std::uint8_t>& bytes,
                  std::vector<SealedSighting>& out) {
  std::size_t offset = 16;  // file header
  while (offset + 8 <= bytes.size()) {
    const std::uint32_t len = le32(bytes.data() + offset);
    const std::uint32_t crc = le32(bytes.data() + offset + 4);
    if (len > bytes.size() - offset - 8) break;
    const std::span<const std::uint8_t> body{bytes.data() + offset + 8, len};
    if (compress::crc32(body) != crc) break;
    if (len > 9) note_flagged(body.subspan(9), out);  // skip LSN + type
    offset += 8 + len;
  }
}

/// Parse one snapshot container (live or stranded .tmp): u32 magic |
/// u32 version | u32 crc | blob(u64 applied_lsn | blob(flagged)). A
/// torn prefix that does not reach the flagged payload is skipped.
void scan_snapshot(const std::vector<std::uint8_t>& bytes,
                   std::vector<SealedSighting>& out) {
  if (bytes.size() < 16) return;
  const std::uint32_t outer_len = le32(bytes.data() + 12);
  if (outer_len < 12 || outer_len > bytes.size() - 16) return;
  const std::uint8_t* outer = bytes.data() + 16;
  const std::uint32_t flagged_len = le32(outer + 8);
  if (flagged_len > outer_len - 12) return;
  note_flagged({outer + 12, flagged_len}, out);
}

/// One server lifetime reconstructed from the state directory — the
/// harness's unit of "reboot".
struct Rig {
  std::unique_ptr<cloud::DurableState> durable;  // outlives the server
  std::unique_ptr<cloud::CloudServer> server;
  cloud::RecoveryStats recovery;

  explicit Rig(const std::string& dir, std::uint64_t compact_after = 5) {
    cloud::DurabilityConfig config;
    config.dir = dir;
    config.compact_after_records = compact_after;
    config.storage_key = storage_key();
    durable = std::make_unique<cloud::DurableState>(std::move(config));
    cloud::AnalysisConfig analysis;
    analysis.threads = 1;
    cloud::ServiceConfig service;
    service.quality_gate = false;
    service.allow_legacy_plane = false;
    service.shards = 4;
    server = std::make_unique<cloud::CloudServer>(
        analysis, auth::CytoAlphabet{}, auth::ParticleClassifier::train({}),
        auth::VerifierConfig{}, nullptr, service);
    recovery = server->attach_durability(*durable);
  }
  ~Rig() { server.reset(); }  // server first: it points at durable
};

/// What the harness has been promised. `acked` holds operations whose
/// calls returned before the crash (must survive); `allowed` adds the
/// single in-flight operation the crash interrupted (may survive — the
/// journal append races the power cut). Everything outside `allowed` is
/// a ghost.
struct Ledger {
  // code string -> acked / allowed session ids, in store order.
  std::map<std::string, std::vector<std::uint64_t>> acked_records;
  std::map<std::string, std::vector<std::uint64_t>> allowed_records;
  std::map<std::string, auth::CytoCode> codes;  ///< key -> the code itself
  std::map<std::string, std::string> acked_users, allowed_users;
  std::set<std::uint64_t> acked_devices, allowed_devices;
  std::set<std::uint64_t> acked_revoked, allowed_revoked;
  bool acked_epoch = false, allowed_epoch = false;
  std::uint64_t acked_lsn = 0;
  /// Every RndB this state-directory lineage has ever issued; invariant
  /// 3 is their global pairwise uniqueness.
  std::set<std::array<std::uint8_t, 16>> rnd_bs;
  /// Sealing nonce -> ciphertext fingerprint, across every disk
  /// observation of this lineage; invariant 6 is that no nonce ever
  /// reappears over *different* ciphertext (CTR keystream reuse).
  std::map<std::uint64_t, std::pair<std::uint32_t, std::size_t>> seal_nonces;
  std::uint64_t next_session = 100;
};

/// Per-invariant violation counters, aggregated across every run.
struct Invariants {
  std::uint64_t acked_lost = 0;
  std::uint64_t ghosts = 0;
  std::uint64_t duplicate_auth = 0;
  std::uint64_t counter_rewinds = 0;
  std::uint64_t secret_leaks = 0;
  std::uint64_t nonce_reuse = 0;
  std::uint64_t recovery_errors = 0;

  [[nodiscard]] std::uint64_t total() const {
    return acked_lost + ghosts + duplicate_auth + counter_rewinds +
           secret_leaks + nonce_reuse + recovery_errors;
  }
};

/// Invariant 6: fold every sealed payload currently on disk (state
/// files AND stranded .tmp snapshots) into the lineage's nonce map. The
/// dangerous case this exists for: a crash after a snapshot tmp is
/// fsync'd but before its rename leaves ciphertext under nonces that
/// recovery never reads — a counter rebuilt from observed payloads
/// would hand those nonces out again, and the reused keystream leaks
/// the sealed secrets with no plaintext substring for invariant 5.
std::size_t check_seal_nonces(const std::string& dir, Ledger& led,
                              Invariants& inv, const char* label) {
  std::vector<SealedSighting> sightings;
  for (const char* file : kStateFiles) {
    for (const char* suffix : {"", ".tmp"}) {
      const auto path = dir + file + suffix;
      if (!util::file_exists(path)) continue;
      const auto bytes = util::read_file(path);
      if (bytes.size() >= 4 && le32(bytes.data()) == 0x4D534A4CU)  // "MSJL"
        scan_journal(bytes, sightings);
      else
        scan_snapshot(bytes, sightings);
    }
  }
  std::size_t failures = 0;
  for (const auto& sighting : sightings) {
    const auto fingerprint = std::make_pair(sighting.crc, sighting.len);
    const auto [it, fresh] =
        led.seal_nonces.emplace(sighting.nonce, fingerprint);
    if (!fresh && it->second != fingerprint) {
      std::printf("INVARIANT 6 VIOLATED [%s]: sealing nonce %llu covers "
                  "two different ciphertexts — CTR keystream reuse\n",
                  label, static_cast<unsigned long long>(sighting.nonce));
      ++inv.nonce_reuse;
      ++failures;
    }
  }
  return failures;
}

/// Run the device side of one handshake and return the server's RndB,
/// or nullopt when the server (correctly) refuses. The device-side RndA
/// is the SAME every time (fixed crypto seed), so RndB freshness rests
/// entirely on the server's handshake ordinal never repeating.
std::optional<std::array<std::uint8_t, 16>> handshake_rnd_b(
    Rig& rig, Ledger& led) {
  core::SessionCrypto crypto(
      kEnrolled,
      crypto::diversify_device_key(pattern_key(0xC0), kEnrolled, kEpoch),
      kEpoch, kCryptoSeed);
  const auto response =
      rig.server->handle(crypto.make_challenge(led.next_session++));
  if (response.type != net::MessageType::kAuthResponse) return std::nullopt;
  const auto payload = net::AuthResponsePayload::deserialize(response.payload);
  if (!crypto.complete(response)) return std::nullopt;
  return payload.challenge;
}

/// Record a fresh RndB, reporting an invariant-3 violation when it
/// duplicates any nonce this lineage has seen.
bool note_rnd_b(Ledger& led, const std::array<std::uint8_t, 16>& rnd_b,
                Invariants& inv, const char* where) {
  if (!led.rnd_bs.insert(rnd_b).second) {
    std::printf("INVARIANT 3 VIOLATED (%s): duplicated RndB — a recorded "
                "handshake would replay\n",
                where);
    ++inv.duplicate_auth;
    return false;
  }
  return true;
}

/// The scripted workload: every durable operation the server supports,
/// plus handshakes (which append nothing), sequenced so compaction (auto
/// at 5 appends, plus one explicit call) lands in the middle of live
/// traffic. Throws SimulatedCrash when a site is armed; the ledger then
/// holds exactly what was acked.
void run_workload(Rig& rig, Ledger& led, Invariants& inv) {
  const auto code1 = code_of({2, 1});
  const auto code2 = code_of({1, 2});
  const auto ack_lsn = [&] { led.acked_lsn = rig.durable->last_lsn(); };

  const auto enroll_device = [&](std::uint64_t id) {
    led.allowed_devices.insert(id);
    rig.server->enroll_device(id);
    led.acked_devices.insert(id);
    ack_lsn();
  };
  const auto store = [&](const auth::CytoCode& code, std::uint64_t session,
                         std::uint8_t fill) {
    led.codes[code.to_string()] = code;
    led.allowed_records[code.to_string()].push_back(session);
    rig.server->store_result(code,
                             {session, std::vector<std::uint8_t>(8, fill)});
    led.acked_records[code.to_string()].push_back(session);
    ack_lsn();
  };
  const auto enroll_user = [&](const std::string& user,
                               const auth::CytoCode& code) {
    led.codes[code.to_string()] = code;
    led.allowed_users[code.to_string()] = user;
    rig.server->enroll_user(user, code);
    led.acked_users[code.to_string()] = user;
    ack_lsn();
  };
  const auto handshake = [&] {
    // Only a *returned* RndB joins the uniqueness set.
    const auto rnd_b = handshake_rnd_b(rig, led);
    if (rnd_b) note_rnd_b(led, *rnd_b, inv, "workload");
  };

  enroll_device(kDeviceA);
  led.allowed_epoch = true;
  rig.server->rotate_master_key(kEpoch, pattern_key(0xC0));
  led.acked_epoch = true;
  ack_lsn();
  enroll_device(kEnrolled);
  enroll_user("alice", code1);
  handshake();
  store(code1, 11, 0x11);  // 5th append: auto-compaction fires here
  enroll_device(kDeviceB);
  handshake();
  store(code1, 12, 0x12);
  rig.durable->compact(*rig.server);
  led.allowed_revoked.insert(kDeviceA);
  if (rig.server->revoke_device(kDeviceA)) {
    led.acked_revoked.insert(kDeviceA);
  }
  ack_lsn();
  enroll_user("bob", code2);
  store(code2, 21, 0x21);
  handshake();
  store(code1, 13, 0x13);
  store(code2, 22, 0x22);  // 5 appends since compact: auto-compacts again
}

/// Check every invariant against a freshly recovered rig.
std::size_t verify(Rig& rig, Ledger& led, const std::string& dir,
                   const char* label, Invariants& inv) {
  std::size_t failures = 0;
  const auto fail = [&](const char* what, const std::string& detail) {
    std::printf("INVARIANT VIOLATED [%s] %s: %s\n", label, what,
                detail.c_str());
    ++failures;
  };

  // 1 + 2: records. Every acked id must recover, in store order —
  // as a subsequence, not a prefix, because a crash-interrupted store
  // whose journal append already landed legitimately survives *ahead*
  // of records acked after recovery. Everything recovered must be
  // allowed.
  std::size_t recovered_total = 0;
  for (const auto& [key, allowed] : led.allowed_records) {
    const auto& code = led.codes.at(key);
    std::vector<std::uint64_t> got;
    for (const auto& record : rig.server->records().fetch(code))
      got.push_back(record.session_id);
    recovered_total += got.size();
    const auto& acked = led.acked_records[key];
    std::size_t matched = 0;
    for (const auto id : got)
      if (matched < acked.size() && acked[matched] == id) ++matched;
    if (matched < acked.size()) {
      fail("acked record lost",
           "code " + key + " session " + std::to_string(acked[matched]));
      ++inv.acked_lost;
    }
    for (const auto id : got) {
      if (std::find(allowed.begin(), allowed.end(), id) == allowed.end()) {
        fail("ghost record", "code " + key + " session " +
                                 std::to_string(id));
        ++inv.ghosts;
      }
    }
  }
  if (rig.server->records().record_count() != recovered_total) {
    fail("ghost record", "records under a key the workload never used");
    ++inv.ghosts;
  }

  // 1 + 2: user enrollments.
  for (const auto& [key, user] : led.acked_users) {
    const auto& code = led.codes.at(key);
    if (rig.server->enrollments().lookup(code) !=
        std::optional<std::string>(user)) {
      fail("acked enrollment lost", user);
      ++inv.acked_lost;
    }
  }
  for (const auto& record : rig.server->enrollments().records()) {
    const auto it = led.allowed_users.find(record.code.to_string());
    if (it == led.allowed_users.end() || it->second != record.user_id) {
      fail("ghost enrollment", record.user_id);
      ++inv.ghosts;
    }
  }

  // 1 + 2: registry. Enrollment is id-only, so presence is membership
  // of the enrolled set (a device enrolled before the master rotation
  // has no derivable key yet).
  const auto registry = rig.server->devices().snapshot();
  for (const auto id : led.acked_devices) {
    const bool present = std::binary_search(registry.enrolled.begin(),
                                            registry.enrolled.end(), id);
    // Revocation tombstones a device: a revoked id no longer resolves,
    // and is_revoked is the surviving acked fact. An *in-flight* revoke
    // (allowed, unacked) may also have committed its append.
    if (!present && led.allowed_revoked.count(id) == 0) {
      fail("acked device lost", "device " + std::to_string(id));
      ++inv.acked_lost;
    }
  }
  for (const auto id : led.acked_revoked) {
    if (!rig.server->devices().is_revoked(id)) {
      fail("acked revocation lost", "device " + std::to_string(id));
      ++inv.acked_lost;
    }
  }
  if (rig.server->devices().size() > led.allowed_devices.size()) {
    fail("ghost device",
         "registry size " + std::to_string(rig.server->devices().size()));
    ++inv.ghosts;
  }
  if (led.acked_epoch && !rig.server->devices().has_epoch(kEpoch)) {
    fail("acked master rotation lost", "epoch 1");
    ++inv.acked_lost;
  }

  // 4: the LSN high-water mark never rewinds past an acked write.
  if (rig.durable->last_lsn() < led.acked_lsn) {
    fail("LSN rewound", "recovered " +
                            std::to_string(rig.durable->last_lsn()) +
                            " < acked " + std::to_string(led.acked_lsn));
    ++inv.counter_rewinds;
  }

  // 3: two fresh handshakes against the recovered server must each
  // issue an RndB this lineage has never seen, even though the device
  // replays the exact same RndA. Two, because a counter seeded from
  // something a boot advances by less than it hands out (the LSN, which
  // the one liveness write between boots moves by 1) starts the next
  // boot inside the range this boot used; with one handshake per boot
  // the two ranges would just miss each other.
  if (rig.server->devices().has_epoch(kEpoch) &&
      rig.server->devices().lookup_epoch(kEnrolled, kEpoch).has_value()) {
    for (int i = 0; i < 2; ++i) {
      const auto rnd_b = handshake_rnd_b(rig, led);
      if (!rnd_b) {
        fail("post-recovery handshake refused", "device 7");
        ++inv.recovery_errors;
      } else if (!note_rnd_b(led, *rnd_b, inv, label)) {
        ++failures;
      }
    }
  }

  // 5: no plaintext key material in any state file (or torn .tmp): the
  // master key, and the keys the devices derive from it.
  const auto master = pattern_key(0xC0);
  if (on_disk(dir, master)) {
    fail("plaintext secret on disk", "master key");
    ++inv.secret_leaks;
  }
  for (const auto id : {kDeviceA, kDeviceB}) {
    if (on_disk(dir, crypto::diversify_device_key(master, id, kEpoch))) {
      fail("plaintext secret on disk",
           "derived key of device " + std::to_string(id));
      ++inv.secret_leaks;
    }
  }

  // 6: no sealing-nonce reuse across the lineage's disk observations.
  failures += check_seal_nonces(dir, led, inv, label);
  return failures;
}

struct RunOutcome {
  bool crashed = false;
  std::string crash_site;
  std::size_t failures = 0;
};

/// One chaos run: arm, run the workload until the crash (or to the
/// end), "reboot" from disk — re-arming stays live so the crash can
/// land inside recovery itself — verify, then prove the recovered
/// server still acknowledges durably (a liveness write that must
/// survive one more restart).
RunOutcome run_once(const Options& options,
                    const std::function<void()>& arm_fn, const char* label,
                    Invariants& inv) {
  RunOutcome out;
  remove_state(options.dir);
  util::CrashPoints::instance().reset();
  Ledger led;
  arm_fn();

  std::unique_ptr<Rig> rig;
  try {
    rig = std::make_unique<Rig>(options.dir);
    run_workload(*rig, led, inv);
  } catch (const util::SimulatedCrash& crash) {
    out.crashed = true;
    out.crash_site = crash.site;
  }
  rig.reset();  // process death

  // Snapshot the nonce map from the crash wreckage BEFORE rebooting:
  // recovery unlinks stranded .tmp files, so this is the only moment
  // their sealed ciphertext (and the nonces it burned) is observable.
  // A post-recovery append that recycled one of those nonces is then
  // caught by the verify()-time scans against the same map.
  out.failures += check_seal_nonces(options.dir, led, inv, "pre-reboot");

  // Reboot. The trigger stays armed: an nth-hit that falls inside
  // recovery kills the recovering process too, and the second reboot
  // must then succeed (hit counts advance monotonically, so a single
  // armed site cannot fire twice).
  for (int attempt = 0; attempt < 2 && !rig; ++attempt) {
    try {
      rig = std::make_unique<Rig>(options.dir);
    } catch (const util::SimulatedCrash& crash) {
      out.crashed = true;
      out.crash_site = crash.site;
    } catch (const cloud::PersistenceError& e) {
      // Crash damage is always a clean prefix or a torn tail; the typed
      // corruption error here means recovery mis-classified it.
      std::printf("INVARIANT VIOLATED [%s] recovery threw: %s\n", label,
                  e.what());
      ++inv.recovery_errors;
      ++out.failures;
      util::CrashPoints::instance().reset();
      remove_state(options.dir);
      return out;
    }
  }
  util::CrashPoints::instance().reset();  // quiesce for verification
  if (!rig) {
    std::printf("INVARIANT VIOLATED [%s] recovery crashed twice\n", label);
    ++inv.recovery_errors;
    ++out.failures;
    remove_state(options.dir);
    return out;
  }

  out.failures += verify(*rig, led, options.dir, label, inv);

  // Liveness: the recovered server keeps its ack ⇒ durable promise.
  const auto code = code_of({2, 1});
  led.codes[code.to_string()] = code;
  led.allowed_records[code.to_string()].push_back(91);
  rig->server->store_result(code, {91, {0x91}});
  led.acked_records[code.to_string()].push_back(91);
  led.acked_lsn = rig->durable->last_lsn();
  rig.reset();

  Rig third(options.dir);
  out.failures += verify(third, led, options.dir, label, inv);
  remove_state(options.dir);
  return out;
}

/// Tracking-only discovery run: enumerate every crash site the workload
/// and a restart actually reach, so the sweep can never silently go
/// stale as sites are added.
std::vector<std::pair<std::string, std::uint64_t>> discover_sites(
    const Options& options, Invariants& inv) {
  remove_state(options.dir);
  util::CrashPoints::instance().reset();
  util::CrashPoints::instance().set_tracking(true);
  Ledger led;
  {
    Rig rig(options.dir);
    run_workload(rig, led, inv);
  }
  { Rig rig(options.dir); }  // restart: recovery-side sites
  auto sites = util::CrashPoints::instance().discovered();
  util::CrashPoints::instance().set_tracking(false);
  util::CrashPoints::instance().reset();
  remove_state(options.dir);
  return sites;
}

/// No-crash recovery sizing: N records through the WAL (no compaction),
/// one restart, report how long replay took.
cloud::RecoveryStats measure_recovery(const Options& options) {
  const auto dir = options.dir + "_sizing";
  remove_state(dir);
  const auto code = code_of({2, 2});
  {
    Rig rig(dir, /*compact_after=*/0);
    rig.server->rotate_master_key(kEpoch, pattern_key(0xC0));
    rig.server->enroll_device(kEnrolled);
    rig.server->enroll_user("carol", code);
    for (std::uint64_t i = 0; i < options.replay_records; ++i)
      rig.server->store_result(
          code, {1000 + i, std::vector<std::uint8_t>(
                               32, static_cast<std::uint8_t>(i & 0xFF))});
  }
  Rig rig(dir, /*compact_after=*/0);
  const auto stats = rig.recovery;
  remove_state(dir);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bench::header("Restart-chaos harness",
                "a crash at any persistence boundary loses no acked "
                "write, invents none, and never re-issues an auth nonce");

  Invariants inv;

  // Phase 0: baseline — the workload and a restart with nothing armed.
  {
    const auto outcome = run_once(options, [] {}, "baseline", inv);
    if (outcome.crashed) {
      std::printf("baseline run crashed unexpectedly at %s\n",
                  outcome.crash_site.c_str());
      ++inv.recovery_errors;
    }
  }

  // Phase 1: discovery.
  const auto sites = discover_sites(options, inv);
  std::printf("discovered %zu crash sites:\n", sites.size());
  for (const auto& [site, hits] : sites)
    std::printf("  %-40s %llu hits\n", site.c_str(),
                static_cast<unsigned long long>(hits));

  // Phase 2: exhaustive sweep — first, middle and last hit of every
  // site, so each boundary dies early, mid-traffic and at its final use
  // (which for boot-time sites lands inside recovery itself).
  std::size_t sweep_runs = 0, sweep_crashes = 0;
  for (const auto& [site, hits] : sites) {
    std::set<std::uint64_t> nths = {1, (hits + 1) / 2, hits};
    for (const auto nth : nths) {
      const std::string label = site + "#" + std::to_string(nth);
      const auto outcome = run_once(
          options,
          [&, site = site] { util::CrashPoints::instance().arm(site, nth); },
          label.c_str(), inv);
      ++sweep_runs;
      if (outcome.crashed) ++sweep_crashes;
    }
  }
  std::printf("sweep: %zu runs over %zu sites, %zu crashes fired, "
              "%llu invariant failures\n",
              sweep_runs, sites.size(), sweep_crashes,
              static_cast<unsigned long long>(inv.total()));

  // Phase 3 (long mode): seeded random crash schedules.
  std::size_t random_crashes = 0;
  for (std::size_t run = 0; run < options.random_runs; ++run) {
    const std::string label = "random#" + std::to_string(run);
    const auto outcome = run_once(
        options,
        [&] {
          util::CrashPoints::instance().arm_random(
              options.crash_probability, options.seed + run);
        },
        label.c_str(), inv);
    if (outcome.crashed) ++random_crashes;
  }
  if (options.random_runs > 0)
    std::printf("random: %zu runs (p=%.3f), %zu crashes fired\n",
                options.random_runs, options.crash_probability,
                random_crashes);

  // Phase 4: recovery sizing (the CI floor input).
  const auto sizing = measure_recovery(options);
  std::printf("recovery: %llu records replayed in %.2f ms (%.1f rec/ms)\n",
              static_cast<unsigned long long>(sizing.records_replayed),
              sizing.replay_ms,
              sizing.replay_ms > 0.0
                  ? static_cast<double>(sizing.records_replayed) /
                        sizing.replay_ms
                  : 0.0);

  bench::JsonCounters json("crash_chaos");
  json.set_text("mode", options.smoke ? "smoke" : "full");
  json.set_count("seed", options.seed);
  json.set_count("sites_discovered", sites.size());
  json.set_count("sweep.runs", sweep_runs);
  json.set_count("sweep.crashes_fired", sweep_crashes);
  json.set_count("random.runs", options.random_runs);
  json.set_count("random.crashes_fired", random_crashes);
  json.set_count("invariants.acked_lost", inv.acked_lost);
  json.set_count("invariants.ghost_records", inv.ghosts);
  json.set_count("invariants.duplicate_auth", inv.duplicate_auth);
  json.set_count("invariants.counter_rewinds", inv.counter_rewinds);
  json.set_count("invariants.secret_leaks", inv.secret_leaks);
  json.set_count("invariants.nonce_reuse", inv.nonce_reuse);
  json.set_count("invariants.recovery_errors", inv.recovery_errors);
  json.set_count("invariants.total_failures", inv.total());
  json.set_count("recovery.records_replayed", sizing.records_replayed);
  json.set("recovery.replay_ms", sizing.replay_ms);
  json.set("recovery.ms_per_1k_records",
           sizing.records_replayed > 0
               ? sizing.replay_ms * 1000.0 /
                     static_cast<double>(sizing.records_replayed)
               : 0.0);
  json.write(options.out);

  if (inv.total() != 0) {
    std::printf("FAILED: %llu invariant violations\n",
                static_cast<unsigned long long>(inv.total()));
    return 1;
  }
  std::printf("all invariants held across every crash\n");
  return 0;
}
