// cloud::DurableState end-to-end: WAL-backed server state survives
// restart, compaction preserves exactly the journal's effects, handshake
// ordinals never rewind yet cost no I/O, sealing keeps secret bytes off
// the disk, and corrupt snapshots surface as the typed PersistenceError.

#include "cloud/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cloud/persistence_error.h"
#include "cloud/server.h"
#include "compress/crc32.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"
#include "net/messages.h"
#include "util/crash_point.h"
#include "util/fileio.h"
#include "util/serialize.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevice = 7;

std::string temp_dir(const char* name) {
  const auto dir =
      std::string(::testing::TempDir()) + "/medsen_durability_" + name;
  return dir;
}

void remove_state(const std::string& dir) {
  for (const char* file : {"/journal.wal", "/records.snap", "/enroll.snap",
                           "/registry.snap", "/seal.epoch"}) {
    std::remove((dir + file).c_str());
    std::remove((dir + file + ".tmp").c_str());
  }
}

std::vector<std::uint8_t> master_key(std::uint8_t fill) {
  return std::vector<std::uint8_t>(16, fill);
}

DurabilityConfig config_for(const std::string& dir) {
  DurabilityConfig config;
  config.dir = dir;
  config.storage_key = std::vector<std::uint8_t>(32, 0x5C);
  return config;
}

/// One server lifetime: a DurableState and a CloudServer recovered from
/// it. Destroying the rig and booting a new one from the same dir is the
/// unit-test version of a process restart.
struct Rig {
  std::unique_ptr<DurableState> durable;  // outlives the server
  std::unique_ptr<CloudServer> server;
  RecoveryStats recovery;

  explicit Rig(DurabilityConfig config) {
    durable = std::make_unique<DurableState>(std::move(config));
    server = std::make_unique<CloudServer>(
        AnalysisConfig{}, auth::CytoAlphabet{},
        auth::ParticleClassifier::train({}));
    recovery = server->attach_durability(*durable);
  }
  ~Rig() { server.reset(); }  // server first: it points at durable
};

auth::CytoCode code_of(std::initializer_list<std::uint8_t> levels) {
  auth::CytoCode code;
  code.levels = levels;
  return code;
}

/// Is `needle` a contiguous subsequence of any of the state files?
bool on_disk(const std::string& dir, std::span<const std::uint8_t> needle) {
  for (const char* file : {"/journal.wal", "/records.snap", "/enroll.snap",
                           "/registry.snap"}) {
    const auto path = dir + file;
    if (!util::file_exists(path)) continue;
    const auto bytes = util::read_file(path);
    if (std::search(bytes.begin(), bytes.end(), needle.begin(),
                    needle.end()) != bytes.end())
      return true;
  }
  return false;
}

// ---- sealing-nonce extraction (outside-in, per docs/PROTOCOL.md) ----

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

/// The CTR nonce of a snapshot container's sealed body
/// (u32 magic | u32 ver | u32 crc | blob(u64 lsn | blob(u8 1 | u64
/// nonce | ct))), or nullopt if the file is torn or unsealed.
std::optional<std::uint64_t> snapshot_nonce(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 16) return std::nullopt;
  const std::uint32_t outer_len = le32(bytes.data() + 12);
  if (outer_len < 12 || outer_len > bytes.size() - 16) return std::nullopt;
  const std::uint8_t* outer = bytes.data() + 16;
  const std::uint32_t flagged_len = le32(outer + 8);
  if (flagged_len < 9 || flagged_len > outer_len - 12) return std::nullopt;
  if (outer[12] != 1) return std::nullopt;  // not sealed
  return le64(outer + 13);
}

/// Every CTR nonce in a journal's CRC-complete sealed records.
std::vector<std::uint64_t> journal_nonces(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint64_t> nonces;
  std::size_t offset = 16;  // file header
  while (offset + 8 <= bytes.size()) {
    const std::uint32_t len = le32(bytes.data() + offset);
    const std::uint32_t crc = le32(bytes.data() + offset + 4);
    if (len > bytes.size() - offset - 8) break;
    const std::span<const std::uint8_t> body{bytes.data() + offset + 8, len};
    if (compress::crc32(body) != crc) break;
    // body = u64 lsn | u8 type | u8 flag | u64 nonce | ciphertext
    if (len >= 9 + 9 && body[9] == 1) nonces.push_back(le64(body.data() + 10));
    offset += 8 + len;
  }
  return nonces;
}

TEST(Durability, StateSurvivesRestartViaJournalReplay) {
  const auto dir = temp_dir("replay");
  remove_state(dir);

  const auto code = code_of({2, 1});
  {
    Rig rig(config_for(dir));
    EXPECT_EQ(rig.recovery.records_replayed, 0u);
    rig.server->enroll_device(3);
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("alice", code);
    rig.server->store_result(code, {11, {0xAA, 0xBB}});
    rig.server->store_result(code, {12, {0xCC}});
    EXPECT_TRUE(rig.server->revoke_device(3));
  }

  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.records_replayed, 7u);
  EXPECT_EQ(rig.recovery.stored_records, 2u);
  EXPECT_EQ(rig.recovery.user_enrollments, 1u);
  EXPECT_EQ(rig.recovery.registry_events, 4u);
  EXPECT_FALSE(rig.recovery.tail_truncated);
  EXPECT_GE(rig.recovery.replay_ms, 0.0);

  EXPECT_EQ(rig.server->enrollments().lookup(code), "alice");
  const auto records = rig.server->records().fetch(code);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, 11u);
  EXPECT_EQ(records[1].session_id, 12u);
  EXPECT_TRUE(rig.server->devices().is_revoked(3));
  EXPECT_FALSE(rig.server->devices().is_revoked(kDevice));
  EXPECT_TRUE(
      rig.server->devices().lookup_epoch(kDevice, 1).has_value());
  remove_state(dir);
}

TEST(Durability, CompactionPreservesStateAndTruncatesJournal) {
  const auto dir = temp_dir("compact");
  remove_state(dir);

  const auto code = code_of({1, 2});
  {
    Rig rig(config_for(dir));
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("bob", code);
    rig.server->store_result(code, {21, {0x01}});
    rig.durable->compact(*rig.server);
    EXPECT_TRUE(util::file_exists(rig.durable->records_snapshot_path()));
    // Post-compaction mutations land in the (now short) journal.
    rig.server->store_result(code, {22, {0x02}});
  }

  Rig rig(config_for(dir));
  EXPECT_TRUE(rig.recovery.snapshots_loaded);
  // Only the post-compaction record replays from the journal.
  EXPECT_EQ(rig.recovery.stored_records, 1u);
  const auto records = rig.server->records().fetch(code);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, 21u);
  EXPECT_EQ(records[1].session_id, 22u);
  EXPECT_EQ(rig.server->enrollments().lookup(code), "bob");
  remove_state(dir);
}

TEST(Durability, AutoCompactionTriggersAtThreshold) {
  const auto dir = temp_dir("autocompact");
  remove_state(dir);
  DurabilityConfig config = config_for(dir);
  config.compact_after_records = 4;
  {
    Rig rig(config);
    const auto code = code_of({2, 2});
    rig.server->rotate_master_key(1, master_key(0x11));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("carol", code);
    rig.server->store_result(code, {1, {0x01}});  // 4th append: compacts
    EXPECT_TRUE(util::file_exists(rig.durable->records_snapshot_path()));
    EXPECT_EQ(rig.durable->last_recovery().records_replayed, 0u);
  }
  Rig rig(config);
  EXPECT_TRUE(rig.recovery.snapshots_loaded);
  EXPECT_EQ(rig.server->records().record_count(), 1u);
  remove_state(dir);
}

TEST(Durability, HandshakeOrdinalsNeverRewindAcrossRestart) {
  const auto dir = temp_dir("handshake");
  remove_state(dir);

  const auto device_key = crypto::diversify_device_key(master_key(0x5A),
                                                       kDevice, 1);
  // The same device-side RndA every time (fixed crypto seed), so RndB
  // freshness rests on the server's ordinal alone.
  std::uint64_t session = 100;
  std::set<std::array<std::uint8_t, net::AuthResponsePayload::kNonceSize>>
      nonces;
  const auto expect_fresh_rnd_b = [&](Rig& rig) {
    core::SessionCrypto crypto(kDevice, device_key, 1, 0x1234);
    const auto response =
        rig.server->handle(crypto.make_challenge(session++));
    ASSERT_EQ(response.type, net::MessageType::kAuthResponse);
    EXPECT_TRUE(
        nonces.insert(net::AuthResponsePayload::deserialize(response.payload)
                          .challenge)
            .second)
        << "RndB reused by handshake " << session - 1;
  };

  {
    Rig rig(config_for(dir));
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    expect_fresh_rnd_b(rig);
    expect_fresh_rnd_b(rig);
  }
  {
    // A boot that only hand-shakes: 1,000 handshakes with fsync on
    // write nothing to the journal.
    Rig rig(config_for(dir));
    const std::uint64_t lsn = rig.durable->last_lsn();
    const auto journal_bytes =
        util::read_file(rig.durable->journal_path()).size();
    for (int i = 0; i < 1000; ++i) expect_fresh_rnd_b(rig);
    EXPECT_EQ(rig.durable->last_lsn(), lsn);
    EXPECT_EQ(util::read_file(rig.durable->journal_path()).size(),
              journal_bytes);
  }
  {
    // ... and the next boot, at the same LSN, still issues fresh RndBs.
    Rig rig(config_for(dir));
    expect_fresh_rnd_b(rig);
    expect_fresh_rnd_b(rig);
  }
  EXPECT_EQ(nonces.size(), 1004u);
  remove_state(dir);
}

TEST(Durability, StorageKeySealsSecretsOnDisk) {
  const auto control_dir = temp_dir("control");
  const auto sealed_dir = temp_dir("sealed");
  remove_state(control_dir);
  remove_state(sealed_dir);

  // Distinctive byte patterns to scan for: the master key, and the key
  // a device derives from it (which the server never stores at all).
  std::vector<std::uint8_t> master(16);
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(0xC0 + i);
  const auto device_key = crypto::diversify_device_key(master, kDevice, 1);

  // Control: a needle planted in a scratch state file IS found — proving
  // the scan itself works.
  util::ensure_directory(control_dir);
  std::vector<std::uint8_t> planted(64, 0x00);
  planted.insert(planted.begin() + 24, master.begin(), master.end());
  util::write_file(control_dir + "/journal.wal", planted);
  EXPECT_TRUE(on_disk(control_dir, master));

  {
    Rig rig(config_for(sealed_dir));
    rig.server->rotate_master_key(1, master);
    rig.server->enroll_device(kDevice);
    rig.durable->compact(*rig.server);
    // Journal after compact: the master travels in a kMasterRotated
    // record as well as in registry.snap.
    rig.server->rotate_master_key(2, master);
    rig.server->enroll_device(4);
  }
  EXPECT_FALSE(on_disk(sealed_dir, master));
  EXPECT_FALSE(on_disk(sealed_dir, device_key));

  // And the sealed state still recovers.
  {
    Rig rig(config_for(sealed_dir));
    EXPECT_TRUE(rig.server->devices().lookup(4).has_value());
    EXPECT_TRUE(rig.server->devices().lookup_epoch(kDevice, 1).has_value());
  }

  // A sealed store opened under another key is unreadable, with the
  // typed error.
  DurabilityConfig wrong = config_for(sealed_dir);
  wrong.storage_key = std::vector<std::uint8_t>(32, 0x7E);
  EXPECT_THROW(Rig{wrong}, PersistenceError);
  remove_state(control_dir);
  remove_state(sealed_dir);
}

TEST(Durability, EmptyStorageKeyRefused) {
  const auto dir = temp_dir("nokey");
  remove_state(dir);
  DurabilityConfig config = config_for(dir);
  config.storage_key.clear();
  EXPECT_THROW(DurableState{config}, PersistenceError);
  // Refused before the journal is opened: nothing was written.
  EXPECT_FALSE(util::file_exists(dir + "/journal.wal"));
  remove_state(dir);
}

TEST(Durability, UnsealedJournalPayloadRefused) {
  // The sealing flag is always 1. A CRC-valid record whose payload
  // carries flag 0 and a well-formed plaintext record is refused, not
  // applied as plaintext.
  const auto dir = temp_dir("flagzero");
  remove_state(dir);
  util::ensure_directory(dir);
  {
    util::ByteWriter payload;
    payload.u8(0);
    payload.str(code_of({2, 1}).to_string());
    payload.u64(51);
    payload.blob(std::vector<std::uint8_t>{0x51});
    Journal journal(dir + "/journal.wal");
    journal.append(JournalRecordType::kRecordStored, payload.take());
  }
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

/// Rewrite the type byte of the journal's first record and recompute
/// its CRC, so the record stays CRC-valid and sealed.
void retype_first_record(const std::string& path, std::uint8_t type) {
  auto bytes = util::read_file(path);
  ASSERT_GT(bytes.size(), Journal::kHeaderSize + 8 + 9);
  const std::size_t body = Journal::kHeaderSize + 8;
  const std::uint32_t len = le32(bytes.data() + Journal::kHeaderSize);
  bytes[body + 8] = type;  // body = u64 lsn | u8 type | payload
  const std::uint32_t crc = compress::crc32(
      std::span<const std::uint8_t>(bytes.data() + body, len));
  for (std::size_t i = 0; i < 4; ++i)
    bytes[Journal::kHeaderSize + 4 + i] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  util::write_file(path, bytes);
}

TEST(Durability, RetiredAndUnknownRecordTypesRefused) {
  // Type 3 (the retired explicit-key record) and values never assigned
  // are refused outright: recovery must neither apply nor skip them.
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{3},
                                  std::uint8_t{9}, std::uint8_t{0xFF}}) {
    const auto dir = temp_dir("retype");
    remove_state(dir);
    {
      Rig rig(config_for(dir));
      rig.server->enroll_device(kDevice);  // kDeviceEnrolled, sealed
    }
    retype_first_record(dir + "/journal.wal", type);
    EXPECT_THROW(Rig{config_for(dir)}, PersistenceError)
        << "type " << static_cast<unsigned>(type);
    remove_state(dir);
  }
}

TEST(Durability, RetiredHandshakeRecordSkippedOnlyInItsOldShape) {
  // Type 8 (the retired per-device handshake ordinal) still sits in
  // journal tails written by older builds, and recovery skips it (see
  // Durability.RecoversStateDirectoryWrittenByParent). It is checked for
  // the shape those builds wrote, u64 device | u64 ordinal: a record of
  // another shape retyped to 8 is refused, not silently dropped.
  const auto dir = temp_dir("retype8");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_device(kDevice);  // payload: u64 device id only
  }
  retype_first_record(dir + "/journal.wal", 8);
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, LsnSequenceSurvivesCrashRightAfterCompaction) {
  // A crash between compaction's truncate and the next append leaves an
  // EMPTY journal next to snapshots stamped with LSN N. The restarted
  // journal must continue above N (the snapshots carry the sequence):
  // without the floor, the next acked record would reuse LSN 1 and a
  // later recovery would gate it out behind the snapshot — a silently
  // lost acknowledged write.
  const auto dir = temp_dir("lsnfloor");
  remove_state(dir);
  const auto code = code_of({1, 1});
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("frank", code);
    rig.server->store_result(code, {31, {0x31}});
    rig.durable->compact(*rig.server);  // journal now empty, snaps at LSN 2
  }
  {
    Rig rig(config_for(dir));  // the post-crash restart
    EXPECT_EQ(rig.durable->last_lsn(), 2u);
    rig.server->store_result(code, {32, {0x32}});
    EXPECT_EQ(rig.durable->last_lsn(), 3u);
  }
  Rig rig(config_for(dir));
  const auto records = rig.server->records().fetch(code);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].session_id, 32u);
  remove_state(dir);
}

TEST(Durability, CorruptSnapshotThrowsTyped) {
  const auto dir = temp_dir("corruptsnap");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("dave", code_of({2, 1}));
    rig.durable->compact(*rig.server);
  }
  auto bytes = util::read_file(dir + "/enroll.snap");
  bytes[bytes.size() / 2] ^= 0xFF;
  util::write_file(dir + "/enroll.snap", bytes);
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, CrashDuringCompactionNeverReusesSealingNonces) {
  // The reuse hole this pins: compaction crashes after records.snap.tmp
  // is fully written and fsync'd but before the rename. The stranded
  // tmp holds ciphertext under a nonce recovery never reads (it only
  // unseals committed snapshots + the journal), so a counter rebuilt
  // from observed payloads would re-issue that nonce on the next append
  // — two ciphertexts under one AES-CTR keystream, XOR of ciphertexts =
  // XOR of plaintexts. The fix is the per-boot epoch partition in
  // seal.epoch plus dropping stale tmps at open.
  const auto dir = temp_dir("noncereuse");
  remove_state(dir);
  DurabilityConfig config = config_for(dir);
  config.storage_key = std::vector<std::uint8_t>(32, 0x42);
  const auto code = code_of({2, 1});
  {
    Rig rig(config);
    rig.server->enroll_user("grace", code);
    rig.server->store_result(code, {41, {0x41}});
    util::ScopedCrashArm armed("fileio.atomic.tmp_synced");
    EXPECT_THROW(rig.durable->compact(*rig.server), util::SimulatedCrash);
  }
  const auto tmp = dir + "/records.snap.tmp";
  ASSERT_TRUE(util::file_exists(tmp));
  const auto stranded = snapshot_nonce(util::read_file(tmp));
  ASSERT_TRUE(stranded.has_value());

  {
    Rig rig(config);
    // Stale tmps are dropped at open, so the stranded ciphertext cannot
    // outlive the nonce accounting either.
    EXPECT_FALSE(util::file_exists(tmp));
    rig.server->store_result(code, {42, {0x42}});
  }

  // Every sealed journal record — old boot and new — carries a nonce
  // distinct from the stranded one and from each other.
  const auto nonces = journal_nonces(util::read_file(dir + "/journal.wal"));
  ASSERT_GE(nonces.size(), 3u);  // enroll, store 41, store 42
  const std::set<std::uint64_t> unique(nonces.begin(), nonces.end());
  EXPECT_EQ(unique.size(), nonces.size()) << "nonce reused inside journal";
  EXPECT_EQ(unique.count(*stranded), 0u)
      << "stranded snapshot nonce re-issued after restart";
  remove_state(dir);
}

TEST(Durability, RacingEnrollmentsNeverPoisonTheJournal) {
  // Validation must run inside the durability gate: if two racing
  // enrollments of one code both pass a check done outside it, both
  // journal kUserEnrolled and the loser's apply() throws only after its
  // record is durable — every later replay then throws and the server
  // can never boot again.
  const auto dir = temp_dir("enrollrace");
  remove_state(dir);
  constexpr int kRounds = 12;
  {
    Rig rig(config_for(dir));
    for (int round = 0; round < kRounds; ++round) {
      const auto code =
          code_of({static_cast<std::uint8_t>(1 + round % 4),
                   static_cast<std::uint8_t>(1 + round / 4)});
      std::atomic<int> rejected{0};
      std::vector<std::thread> threads;
      threads.reserve(4);
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&rig, &rejected, &code, round, t] {
          try {
            rig.server->enroll_user("user" + std::to_string(round) + "_" +
                                        std::to_string(t),
                                    code);
          } catch (const std::invalid_argument&) {
            ++rejected;
          }
        });
      }
      for (auto& thread : threads) thread.join();
      EXPECT_EQ(rejected.load(), 3) << "round " << round;
    }
  }
  // The replay is the proof: exactly one record per code reached the
  // WAL, so recovery applies cleanly instead of throwing.
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.user_enrollments,
            static_cast<std::uint64_t>(kRounds));
  remove_state(dir);
}

TEST(Durability, SnapshotServerMismatchSurfacesTyped) {
  // A snapshot written under one alphabet recovered into a server with
  // another makes enroll() throw std::invalid_argument mid-restore;
  // the persistence contract says every recovery failure is the typed
  // PersistenceError.
  const auto dir = temp_dir("snapmismatch");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("heidi", code_of({4, 4}));
    rig.durable->compact(*rig.server);
  }
  DurableState durable(config_for(dir));
  auth::CytoAlphabet small;
  small.concentration_levels_per_ul = {0.0, 150.0};  // level 4 invalid
  CloudServer server(AnalysisConfig{}, small,
                     auth::ParticleClassifier::train({}));
  EXPECT_THROW(server.attach_durability(durable), PersistenceError);
  remove_state(dir);
}

TEST(Durability, InvalidEnrollmentIsNeverJournaled) {
  const auto dir = temp_dir("invalidenroll");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("erin", code_of({2, 1}));
    // Same code for another user: rejected before it reaches the WAL.
    EXPECT_THROW(rig.server->enroll_user("mallory", code_of({2, 1})),
                 std::invalid_argument);
    EXPECT_EQ(rig.durable->last_lsn(), 1u);
  }
  // Replay is clean — the invalid enrollment left no journal record.
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.user_enrollments, 1u);
  EXPECT_EQ(rig.server->enrollments().lookup(code_of({2, 1})), "erin");
  remove_state(dir);
}

}  // namespace
}  // namespace medsen::cloud
