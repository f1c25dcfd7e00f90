// cloud::DurableState end-to-end: WAL-backed server state survives
// restart, compaction seals the journal into segments it never rewrites,
// stored reports are read back from the log by their locators,
// handshake ordinals never rewind yet cost no I/O, sealing keeps secret
// bytes off the disk, and damaged segments, frames or snapshots surface
// as the typed PersistenceError.

#include "cloud/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cloud/journal.h"
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

namespace fs = std::filesystem;

constexpr std::uint64_t kDevice = 7;

std::string temp_dir(const char* name) {
  const auto dir =
      std::string(::testing::TempDir()) + "/medsen_durability_" + name;
  return dir;
}

void remove_state(const std::string& dir) { fs::remove_all(dir); }

/// A fresh copy of the state directory an older build wrote
/// (tests/cloud/data/parent_state/, see parent_state_test.cpp): three
/// snapshots at LSN 10 and a journal tail. Its storage key is
/// config_for()'s.
std::string copy_parent_state(const char* name) {
  const auto dir = temp_dir(name);
  remove_state(dir);
  fs::copy(fs::path(MEDSEN_CLOUD_TEST_DATA) / "parent_state", dir);
  return dir;
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

/// Is `needle` a contiguous subsequence of any file in the state
/// directory (journal, segments, seal.epoch, leftovers alike)?
bool on_disk(const std::string& dir, std::span<const std::uint8_t> needle) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto bytes = util::read_file(entry.path().string());
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

/// Every CTR nonce in a journal's or segment's CRC-complete sealed
/// records.
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

/// Where each record of a journal or segment image starts.
std::vector<std::size_t> record_offsets(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> offsets;
  for (std::size_t at = Journal::kHeaderSize; at + 8 <= bytes.size();
       at += 8 + le32(bytes.data() + at))
    offsets.push_back(at);
  return offsets;
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
    // The four records moved to segment 1; the fresh journal holds only
    // its header.
    EXPECT_EQ(Journal::read_segment(rig.durable->segment_path(1)).size(), 4u);
    EXPECT_EQ(util::read_file(rig.durable->journal_path()).size(),
              Journal::kHeaderSize);
    // Post-compaction mutations land in the fresh journal.
    rig.server->store_result(code, {22, {0x02}});
  }

  Rig rig(config_for(dir));
  EXPECT_FALSE(rig.recovery.snapshots_loaded);
  EXPECT_EQ(rig.recovery.segments_replayed, 1u);
  // Each store replays once: one from the segment, one from the journal.
  EXPECT_EQ(rig.recovery.stored_records, 2u);
  EXPECT_EQ(rig.recovery.records_replayed, 5u);
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
    EXPECT_TRUE(util::file_exists(rig.durable->segment_path(1)));
    EXPECT_FALSE(util::file_exists(rig.durable->segment_path(2)));
    EXPECT_EQ(rig.durable->last_recovery().records_replayed, 0u);
  }
  Rig rig(config);
  EXPECT_EQ(rig.recovery.segments_replayed, 1u);
  EXPECT_EQ(rig.server->records().record_count(), 1u);
  remove_state(dir);
}

TEST(Durability, CompactedSegmentsAreNeverRewritten) {
  // Compaction renames the journal into the next segment and never
  // touches an earlier one: across four compactions and a restart each
  // segment keeps exactly the bytes it was appended with, recovery
  // replays all of them in order, and no snapshot is ever written.
  const auto dir = temp_dir("segments");
  remove_state(dir);
  const auto code = code_of({2, 1});
  std::vector<std::vector<std::uint8_t>> sealed;
  std::uint64_t session = 0;
  auto rig = std::make_unique<Rig>(config_for(dir));
  rig->server->rotate_master_key(1, master_key(0x5A));
  rig->server->enroll_user("ivan", code);
  for (std::uint64_t n = 1; n <= 4; ++n) {
    if (n == 3) {  // a restart between compactions
      rig.reset();
      rig = std::make_unique<Rig>(config_for(dir));
    }
    for (int i = 0; i < 3; ++i) {
      ++session;
      rig->server->store_result(
          code, {session, std::vector<std::uint8_t>(
                              16, static_cast<std::uint8_t>(session))});
    }
    const auto journal = util::read_file(rig->durable->journal_path());
    rig->durable->compact(*rig->server);
    sealed.push_back(util::read_file(rig->durable->segment_path(n)));
    EXPECT_EQ(sealed.back(), journal) << "segment " << n;
    for (std::uint64_t k = 1; k < n; ++k)
      EXPECT_EQ(util::read_file(rig->durable->segment_path(k)), sealed[k - 1])
          << "segment " << k << " after compaction " << n;
  }
  rig.reset();

  Rig reopened(config_for(dir));
  EXPECT_EQ(reopened.recovery.segments_replayed, 4u);
  EXPECT_EQ(reopened.recovery.stored_records, 12u);
  const auto records = reopened.server->records().fetch(code);
  ASSERT_EQ(records.size(), 12u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].session_id, i + 1);
  for (std::uint64_t k = 1; k <= 4; ++k)
    EXPECT_EQ(util::read_file(reopened.durable->segment_path(k)),
              sealed[k - 1]);
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".snap") << entry.path();
  remove_state(dir);
}

TEST(Durability, DamagedSegmentThrowsTypedAndIsNeverTruncated) {
  // A torn tail is forgiven only in the live journal. A segment was
  // complete when it was renamed, so a bit flip in any of its records,
  // the last one included, or a record cut short refuses recovery with
  // the typed error and leaves the segment as it was.
  const auto dir = temp_dir("badsegment");
  remove_state(dir);
  const auto code = code_of({1, 2});
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("judy", code);
    rig.server->store_result(code, {51, {0x51}});
    rig.server->store_result(code, {52, {0x52}});
    rig.durable->compact(*rig.server);
  }
  const auto segment = dir + "/seg-1.wal";
  const auto good = util::read_file(segment);
  const auto offsets = record_offsets(good);
  ASSERT_EQ(offsets.size(), 3u);
  std::vector<std::vector<std::uint8_t>> damaged;
  for (const std::size_t at : offsets) {
    auto flipped = good;
    flipped[at + 8 + 9 + 4] ^= 0x10;  // inside the sealed payload
    damaged.push_back(std::move(flipped));
  }
  damaged.emplace_back(good.begin(), good.end() - 1);
  for (const auto& bytes : damaged) {
    util::write_file(segment, bytes);
    EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
    EXPECT_EQ(util::read_file(segment), bytes);
  }
  util::write_file(segment, good);
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.server->records().fetch(code).size(), 2u);
  remove_state(dir);
}

TEST(Durability, MissingOrReorderedSegmentThrowsTyped) {
  // Segments must be numbered 1..n and each file's LSNs must lie above
  // the previous file's: a lost segment or a swapped pair is refused,
  // never replayed around.
  const auto dir = temp_dir("segmentgap");
  remove_state(dir);
  const auto code = code_of({2, 2});
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("kim", code);
    for (std::uint64_t session = 61; session <= 63; ++session) {
      rig.server->store_result(code, {session, {0x61}});
      rig.durable->compact(*rig.server);
    }
    rig.server->store_result(code, {64, {0x64}});
  }
  const auto seg = [&](int n) {
    return dir + "/seg-" + std::to_string(n) + ".wal";
  };
  const auto swap = [&](const std::string& a, const std::string& b) {
    fs::rename(a, dir + "/swap");
    fs::rename(b, a);
    fs::rename(dir + "/swap", b);
  };
  fs::rename(seg(2), dir + "/seg-2.saved");
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);  // a gap at 2
  fs::rename(dir + "/seg-2.saved", seg(2));
  swap(seg(1), seg(3));
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);  // out of order
  swap(seg(1), seg(3));
  swap(seg(3), dir + "/journal.wal");
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);  // journal behind
  swap(seg(3), dir + "/journal.wal");
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.segments_replayed, 3u);
  EXPECT_EQ(rig.server->records().fetch(code).size(), 4u);
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
    // The master travels in kMasterRotated records, in segment 1 and in
    // the journal.
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
  // A crash right after compaction's rename leaves no journal at all,
  // only a segment holding LSNs 1..N. The restarted journal starts
  // empty and must continue above N (the segment carries the sequence):
  // without the floor, the next acked record would reuse LSN 1 and
  // every later recovery would refuse the journal as out of order.
  const auto dir = temp_dir("lsnfloor");
  remove_state(dir);
  const auto code = code_of({1, 1});
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("frank", code);
    rig.server->store_result(code, {31, {0x31}});
    util::ScopedCrashArm armed("journal.rotate.renamed");
    EXPECT_THROW(rig.durable->compact(*rig.server), util::SimulatedCrash);
  }
  ASSERT_FALSE(util::file_exists(dir + "/journal.wal"));
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
  // This build writes no snapshots but still reads the ones an older
  // build left behind; a damaged one is refused with the typed error.
  const auto dir = copy_parent_state("corruptsnap");
  auto bytes = util::read_file(dir + "/enroll.snap");
  bytes[bytes.size() / 2] ^= 0xFF;
  util::write_file(dir + "/enroll.snap", bytes);
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, CrashDuringCompactionNeverReusesSealingNonces) {
  // Compaction crashes at each step of its rotation, and the restarted
  // server seals more records, compacts and seals again. The sealed
  // records of the crashed boot sit in a segment (or a journal) written
  // under nonces the new boot must never issue again — two ciphertexts
  // under one AES-CTR keystream, XOR of ciphertexts = XOR of
  // plaintexts. The per-boot epoch partition in seal.epoch guarantees
  // it whatever recovery happens to read.
  DurabilityConfig config = config_for(temp_dir("noncereuse"));
  config.storage_key = std::vector<std::uint8_t>(32, 0x42);
  const auto code = code_of({2, 1});
  for (const char* site : {"journal.rotate.begin", "journal.rotate.renamed",
                           "journal.rotate.header_written"}) {
    remove_state(config.dir);
    {
      Rig rig(config);
      rig.server->enroll_user("grace", code);
      rig.server->store_result(code, {41, {0x41}});
      util::ScopedCrashArm armed(site);
      EXPECT_THROW(rig.durable->compact(*rig.server), util::SimulatedCrash)
          << site;
    }
    {
      Rig rig(config);
      EXPECT_EQ(rig.server->records().fetch(code).size(), 1u) << site;
      rig.server->store_result(code, {42, {0x42}});
      rig.durable->compact(*rig.server);
      rig.server->store_result(code, {43, {0x43}});
    }

    // Every sealed record in every log file, old boot and new, carries
    // a nonce of its own.
    std::vector<std::uint64_t> nonces;
    for (const auto& entry : fs::directory_iterator(config.dir)) {
      if (entry.path().extension() != ".wal") continue;
      const auto found = journal_nonces(util::read_file(entry.path().string()));
      nonces.insert(nonces.end(), found.begin(), found.end());
    }
    ASSERT_EQ(nonces.size(), 4u) << site;  // enroll, stores 41, 42, 43
    const std::set<std::uint64_t> unique(nonces.begin(), nonces.end());
    EXPECT_EQ(unique.size(), nonces.size()) << "nonce reused after " << site;
  }
  remove_state(config.dir);
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
  // State written under one alphabet recovered into a server with
  // another makes enroll() throw std::invalid_argument mid-recovery,
  // whether the enrollment comes from an older build's snapshot or from
  // a segment; the persistence contract says every recovery failure is
  // the typed PersistenceError.
  auth::CytoAlphabet small;
  small.concentration_levels_per_ul = {0.0, 150.0};  // levels 2+ invalid
  const auto recover_into_small = [&](const std::string& dir) {
    DurableState durable(config_for(dir));
    CloudServer server(AnalysisConfig{}, small,
                       auth::ParticleClassifier::train({}));
    EXPECT_THROW(server.attach_durability(durable), PersistenceError) << dir;
  };
  const auto legacy = copy_parent_state("snapmismatch_legacy");
  recover_into_small(legacy);  // enroll.snap holds alice at {2, 1}

  const auto dir = temp_dir("snapmismatch");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("heidi", code_of({4, 4}));
    rig.durable->compact(*rig.server);
  }
  recover_into_small(dir);
  remove_state(legacy);
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

/// A deterministic report for `session`, report-sized for some sessions.
std::vector<std::uint8_t> report_of(std::uint64_t session) {
  std::vector<std::uint8_t> report(session % 3 == 0 ? 5592 : 40 + session);
  for (std::size_t i = 0; i < report.size(); ++i)
    report[i] = static_cast<std::uint8_t>(session * 131 + i);
  return report;
}

/// Every record fetch() and latest() return for `code` is the report
/// stored for its session, in store order.
void expect_reports(CloudServer& server, const auth::CytoCode& code,
                    const std::vector<std::uint64_t>& sessions) {
  const auto records = server.records().fetch(code);
  ASSERT_EQ(records.size(), sessions.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].session_id, sessions[i]);
    EXPECT_EQ(records[i].encrypted_result, report_of(sessions[i]))
        << "session " << sessions[i];
  }
  const auto latest = server.records().latest(code);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->session_id, sessions.back());
  EXPECT_EQ(latest->encrypted_result, report_of(sessions.back()));
}

TEST(Durability, ReportsReadBackByteIdenticalAcrossRotationsAndRestart) {
  // The record store keeps a locator per report, not its bytes: reports
  // stored into the journal, renamed into two segments by compaction,
  // and re-indexed by a restart all read back byte for byte, and the
  // counts keep their meaning.
  const auto dir = temp_dir("locators");
  remove_state(dir);
  const auto alice = code_of({2, 1});
  const auto bob = code_of({1, 3});
  std::vector<std::uint64_t> alice_sessions, bob_sessions;
  const auto expect_all = [&](Rig& rig) {
    expect_reports(*rig.server, alice, alice_sessions);
    expect_reports(*rig.server, bob, bob_sessions);
    EXPECT_EQ(rig.server->records().record_count(),
              alice_sessions.size() + bob_sessions.size());
    EXPECT_EQ(rig.server->records().identifier_count(), 2u);
  };
  {
    Rig rig(config_for(dir));
    std::uint64_t session = 0;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 4; ++i) {
        ++session;
        auto& sessions = session % 2 == 0 ? alice_sessions : bob_sessions;
        rig.server->store_result(session % 2 == 0 ? alice : bob,
                                 {session, report_of(session)});
        sessions.push_back(session);
      }
      expect_all(rig);  // in the journal ...
      if (round < 2) {
        rig.durable->compact(*rig.server);
        expect_all(rig);  // ... and once renamed into a segment
      }
    }
  }
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.segments_replayed, 2u);
  EXPECT_EQ(rig.recovery.stored_records, 12u);
  expect_all(rig);
  remove_state(dir);
}

/// Replace byte `at` of the file at `path` with `value` and recompute
/// the CRC of the frame starting at `frame`, so only the deeper checks
/// can tell.
void rewrite_in_frame(const std::string& path, std::size_t frame,
                      std::size_t at, std::uint8_t value) {
  auto bytes = util::read_file(path);
  bytes[at] = value;
  const std::uint32_t len = le32(bytes.data() + frame);
  const std::uint32_t crc = compress::crc32(
      std::span<const std::uint8_t>(bytes.data() + frame + 8, len));
  for (std::size_t i = 0; i < 4; ++i)
    bytes[frame + 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  util::write_file(path, bytes);
}

TEST(Durability, DamagedFrameBehindALocatorFailsFetchTyped) {
  // fetch() reads each report back strictly. A flipped byte anywhere in
  // the segment frame a locator names fails its length or CRC check; a
  // change that fixes the CRC up fails the LSN, type, seal, identifier
  // or session check. Each throws PersistenceError, none modifies the
  // file, and the undamaged report still reads back.
  const auto dir = temp_dir("badframe");
  remove_state(dir);
  const auto code = code_of({3, 2});
  Rig rig(config_for(dir));
  rig.server->store_result(code, {71, report_of(71)});
  rig.server->store_result(code, {72, report_of(72)});
  rig.durable->compact(*rig.server);
  const auto segment = rig.durable->segment_path(1);
  const auto good = util::read_file(segment);
  const auto offsets = record_offsets(good);
  ASSERT_EQ(offsets.size(), 2u);
  const std::size_t frame = offsets[0];
  const auto expect_refused = [&](const std::string& what) {
    const auto damaged = util::read_file(segment);
    EXPECT_THROW((void)rig.server->records().fetch(code), PersistenceError)
        << what;
    EXPECT_EQ(util::read_file(segment), damaged) << what;
    EXPECT_EQ(rig.server->records().latest(code)->encrypted_result,
              report_of(72))
        << what;
  };
  for (std::size_t at = frame; at < offsets[1]; ++at) {
    auto bytes = good;
    bytes[at] ^= 0x01;
    util::write_file(segment, bytes);
    expect_refused("flipped byte " + std::to_string(at));
  }
  // body = u64 lsn | u8 type | u8 flag | u64 nonce | sealed
  // (str key | u64 session | blob report)
  const std::size_t body = frame + 8;
  const std::size_t key = body + 18 + 4;
  const std::size_t session = key + code.to_string().size();
  const std::vector<std::pair<std::size_t, std::string>> fields = {
      {body, "LSN"},
      {body + 8, "type"},
      {body + 9, "seal flag"},
      {key, "identifier"},
      {session, "session"}};
  for (const auto& [at, what] : fields) {
    util::write_file(segment, good);
    rewrite_in_frame(segment, frame, at, good[at] ^ 0x02);
    expect_refused(what + " with the CRC fixed up");
  }
  util::write_file(segment, good);
  expect_reports(*rig.server, code, {71, 72});
  remove_state(dir);
}

TEST(Durability, ReadersFetchWhileWriterStoresAndCompacts) {
  // Barrier-started readers fetch one identifier's history while a
  // writer stores into it and compaction renames the journal into a
  // segment every few appends. A reader's locator may name the live
  // journal when it is copied and a segment by the time the frame is
  // read; the file is resolved under the journal's lock, so every
  // fetch returns exactly the reports stored so far.
  const auto dir = temp_dir("readrace");
  remove_state(dir);
  auto config = config_for(dir);
  config.fsync = false;
  config.compact_after_records = 7;
  Rig rig(config);
  const auto code = code_of({3, 3});
  constexpr int kReaders = 3;
  constexpr std::uint64_t kStores = 120;
  std::atomic<int> waiting{kReaders + 1};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0}, errors{0}, fetches{0};
  const auto start_together = [&] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      start_together();
      do {
        try {
          const auto records = rig.server->records().fetch(code);
          for (std::size_t i = 0; i < records.size(); ++i)
            if (records[i].session_id != i + 1 ||
                records[i].encrypted_result != report_of(i + 1))
              ++mismatches;
          const auto latest = rig.server->records().latest(code);
          if (latest &&
              latest->encrypted_result != report_of(latest->session_id))
            ++mismatches;
          ++fetches;
        } catch (const std::exception&) {
          ++errors;
        }
      } while (!done.load());
    });
  }
  start_together();
  for (std::uint64_t s = 1; s <= kStores; ++s) {
    rig.server->store_result(code, {s, report_of(s)});
    if (s % 25 == 0) rig.durable->compact(*rig.server);
  }
  done = true;
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GE(fetches.load(), static_cast<std::uint64_t>(kReaders));
  std::vector<std::uint64_t> all(kStores);
  for (std::uint64_t s = 1; s <= kStores; ++s) all[s - 1] = s;
  expect_reports(*rig.server, code, all);
  remove_state(dir);
}

}  // namespace
}  // namespace medsen::cloud
