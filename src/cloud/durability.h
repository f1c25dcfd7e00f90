#pragma once
// cloud::DurableState — the crash-consistency layer for one CloudServer.
// The log is the state: a write-ahead journal plus the immutable
// segments compaction renames it into (seg-<n>.wal), so no step of a
// compaction grows with the store and a stored record is written once.
// It enforces the ack ⇒ durable contract: every server-side mutation is
// appended (and fsync'd) to the journal *and applied to memory under
// the same lock* before the caller may acknowledge it.
//
// Recovery = load the snapshots an older build may have left
// (records.snap, enroll.snap, registry.snap; never written any more),
// then replay the segments in order and then the journal, each store
// gated on its own snapshot's applied_lsn.
//
// The log holds the stored reports: the record store keeps one
// FrameLocator per report (recovery indexes each replayed
// kRecordStored, log_record hands the fresh frame's locator to its
// apply), and read_record() reads a report back from its frame.
//
// Secrets at rest: every journal payload is sealed with AES-128-CTR
// under a key derived once from the storage key, which is required.
// Nonces are epoch-partitioned: a boot counter persisted in seal.epoch
// is durably bumped at every open and forms the high 32 bits of each
// nonce, so every process lifetime seals in a disjoint nonce space.
// Counting only nonces *observed* during recovery is not enough — a
// torn final journal record consumes a nonce the tail-truncation hides,
// and an older build's crash between write_file_atomic's tmp fsync and
// its rename strands a fully sealed <store>.snap.tmp that recovery
// never reads; either way a restart that resumed at max(observed)+1
// would re-issue a live nonce and two ciphertexts under one keystream
// would coexist on disk (XOR of ciphertexts = XOR of plaintexts). Stale
// .snap.tmp files are also unlinked at open so the stranded ciphertext
// itself cannot linger.
//
// The boot epoch also partitions the server's handshake ordinals
// (boot_epoch()): RndB is derived deterministically, so its freshness
// across restarts rests on the same durable bump as the sealing nonces,
// and a handshake writes nothing here — the "no duplicated auth
// decision" invariant at no I/O.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "auth/identifier.h"
#include "cloud/journal.h"
#include "cloud/storage.h"
#include "util/secret_bytes.h"
#include "util/sharded.h"

namespace medsen::cloud {

class CloudServer;

struct DurabilityConfig {
  /// State directory (created if missing). Holds journal.wal, the
  /// segments seg-1.wal, seg-2.wal, ... and seal.epoch.
  std::string dir;
  /// fsync each journal append (the ack ⇒ durable contract); off only
  /// for benches measuring the in-memory path.
  bool fsync = true;
  /// Compact (rotate the journal into the next segment) once this many
  /// records have been appended since the last compaction (0 = manual
  /// only).
  std::uint64_t compact_after_records = 4096;
  /// Seals journal payloads (AES-128-CTR under a derived key).
  /// Required: DurableState refuses an empty key with PersistenceError.
  std::vector<std::uint8_t> storage_key;
};

/// What recovery found and how long replay took (the chaos harness
/// exports these as recovery.replay_ms / recovery.records_replayed).
struct RecoveryStats {
  bool snapshots_loaded = false;  ///< an older build's snapshots were read
  std::uint64_t segments_replayed = 0;
  std::uint64_t records_replayed = 0;  ///< segment + journal records applied
  std::uint64_t stored_records = 0;
  std::uint64_t registry_events = 0;
  std::uint64_t user_enrollments = 0;
  std::uint64_t last_lsn = 0;
  bool tail_truncated = false;
  double replay_ms = 0.0;
};

class DurableState {
 public:
  /// Opens (or creates) the journal under config.dir. Throws
  /// PersistenceError on an empty storage key or corrupt on-disk state.
  explicit DurableState(DurabilityConfig config);

  /// Load legacy snapshots, then replay the segments and the journal
  /// into the server's stores.
  /// Call exactly once, before any log_* hook (CloudServer::
  /// attach_durability does both in order).
  RecoveryStats recover_into(CloudServer& server);

  // Append hooks. Each one journals the event durably and then runs
  // `apply` (the in-memory mutation) under the same lock, so memory is
  // never ahead of or behind the journal.
  /// `apply` gets the locator of the record's frame.
  void log_record(const std::string& key, const StoredRecord& record,
                  const std::function<void(const FrameLocator&)>& apply);
  /// `validate` runs under the gate, immediately before the journal
  /// append: two racing enrollments of one code serialize there, so the
  /// loser throws before its record reaches the WAL. Validating outside
  /// the gate would let both pass and journal a record whose replay
  /// throws on every later recovery — a permanently unbootable server.
  void log_user_enrolled(const std::string& user_id,
                         const auth::CytoCode& code,
                         const std::function<void()>& validate,
                         const std::function<void()>& apply);
  void log_enroll_device(std::uint64_t device_id,
                         const std::function<void()>& apply);
  void log_revoke(std::uint64_t device_id,
                  const std::function<void()>& apply);
  void log_master_rotated(std::uint32_t epoch,
                          std::span<const std::uint8_t> master,
                          const std::function<void()>& apply);
  void log_epoch_retired(std::uint32_t epoch,
                         const std::function<void()>& apply);

  /// Rename the journal, frames as appended, to the next segment and
  /// start a fresh one (a no-op when nothing was appended since the
  /// last compaction). Blocks concurrent log_* calls for the duration;
  /// crash-safe at every intermediate point. The append that reaches
  /// compact_after_records does the same.
  void compact(CloudServer& server);

  /// Read back the report of the kRecordStored frame at `at`: one strict
  /// frame read (length, CRC, LSN, type), unsealed and decoded. Its
  /// identifier and session must be `key` and `session_id`; any mismatch
  /// throws PersistenceError and the file is never modified. Thread-safe.
  [[nodiscard]] std::vector<std::uint8_t> read_record(
      const std::string& key, std::uint64_t session_id,
      const FrameLocator& at);

  [[nodiscard]] std::uint64_t last_lsn() const { return journal_.last_lsn(); }
  /// This boot's epoch, durably bumped in seal.epoch at construction
  /// before anything is sealed: no earlier process lifetime used it.
  [[nodiscard]] std::uint64_t boot_epoch() const { return seal_epoch_; }
  [[nodiscard]] const RecoveryStats& last_recovery() const {
    return recovery_;
  }
  [[nodiscard]] std::string journal_path() const;
  /// Segment `n` (numbered from 1, in LSN order).
  [[nodiscard]] std::string segment_path(std::uint64_t n) const;
  /// The persisted sealing-nonce boot epoch.
  [[nodiscard]] std::string seal_epoch_path() const;

 private:
  /// One-shard Sharded (cloud-mutex rule) serializing append+apply
  /// against compaction. The journal's own lock nests inside.
  struct Gate {};

  /// `validate` (optional) runs under the gate before the append, so a
  /// mutation that cannot apply is rejected before it is journaled;
  /// `apply` gets the appended frame's locator.
  void append_and_apply(
      JournalRecordType type, std::vector<std::uint8_t> payload,
      const std::function<void()>& validate,
      const std::function<void(const FrameLocator&)>& apply);
  /// The same for a mutation whose apply needs no locator.
  void append_and_apply(JournalRecordType type,
                        std::vector<std::uint8_t> payload,
                        const std::function<void()>& apply);
  /// Durably bump (and load) the seal.epoch boot counter; called once
  /// at construction, before any seal_payload.
  void bump_seal_epoch();
  /// Flag-prefixed payload sealing: u8 1 | u64 nonce | ciphertext. The
  /// flag is always 1; unseal_payload refuses any other value. CTR
  /// keystream is positional, so unseal_payload can stop after the first
  /// `limit` plaintext bytes.
  [[nodiscard]] std::vector<std::uint8_t> seal_payload(
      std::vector<std::uint8_t> payload);
  [[nodiscard]] std::vector<std::uint8_t> unseal_payload(
      std::span<const std::uint8_t> flagged,
      std::size_t limit = static_cast<std::size_t>(-1));
  /// The identifier and session of a sealed kRecordStored payload,
  /// unsealing only the header in front of the report, whose stated
  /// size must cover exactly the rest of the payload.
  [[nodiscard]] std::pair<std::string, std::uint64_t> unseal_stored_header(
      std::span<const std::uint8_t> flagged);
  /// Reads an older build's snapshot `name`: returns (applied_lsn, body)
  /// or applied_lsn 0 when the file is absent.
  [[nodiscard]] std::pair<std::uint64_t, std::vector<std::uint8_t>>
  read_snapshot(const char* name, std::uint32_t magic);
  /// Rotate the journal into the segment of its generation. Under the
  /// gate.
  void rotate_journal();

  DurabilityConfig config_;
  Journal journal_;
  util::SecretBytes seal_key_;  ///< derived once from the storage key
  /// This boot's sealing-nonce epoch (high 32 nonce bits), from
  /// seal.epoch.
  std::uint64_t seal_epoch_ = 0;
  /// Next sealing nonce: seal_epoch_ << 32 | in-boot counter. Disjoint
  /// per process lifetime — see the header comment.
  std::atomic<std::uint64_t> nonce_{1};
  util::Sharded<Gate> gate_{1};
  RecoveryStats recovery_;
};

}  // namespace medsen::cloud
