#pragma once
// cloud::Journal — the checksummed, length-prefixed write-ahead log
// behind the cloud's ack ⇒ durable contract. Every state mutation the
// server acknowledges (stored record, enrollment, registry event) is
// appended — and fsync'd — here *before* the acknowledgement leaves the
// building; recovery replays the journal over the last snapshots. See
// DESIGN.md "Durability model" and PROTOCOL.md for the wire format.
//
// On-disk layout (all integers little-endian):
//
//   header   u32 magic "MSJL" | u32 version | u32 flags | u32 reserved
//   record*  u32 body_len | u32 crc32(body) | body
//   body     u64 lsn | u8 type | payload bytes
//
// LSNs are strictly increasing and survive compaction (truncate_all
// keeps counting), so "counters monotonic across restart" is checkable
// from the log alone.
//
// Torn-tail tolerance: a crash can tear only the *final* record (appends
// are sequential), so a partial or CRC-broken record that reaches EOF is
// truncated away — it was never acknowledged, because the ack waits for
// fsync. A CRC-broken record with more records *after* it cannot be a
// torn append; that is real corruption and open() throws
// PersistenceError rather than silently dropping acknowledged state.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cloud/persistence_error.h"
#include "util/fileio.h"
#include "util/sharded.h"

namespace medsen::cloud {

/// What a journal record describes. Values are the wire encoding —
/// append-only, never renumber. Two values are retired and never
/// reused. 3 carried an explicit per-device key: recovery refuses it
/// like any unknown type. 8 carried a per-device handshake ordinal:
/// older builds left it in journal tails, and recovery checks its shape
/// and skips it, since every ordinal this build hands out lies above
/// any it recorded.
enum class JournalRecordType : std::uint8_t {
  kRecordStored = 1,      ///< record store append
  kUserEnrolled = 2,      ///< enrollment database append
  kDeviceEnrolled = 4,    ///< diversified enrollment (id only)
  kDeviceRevoked = 5,     ///< device revoked
  kMasterRotated = 6,     ///< master-key epoch installed
  kEpochRetired = 7,      ///< master-key epoch dropped
  kRetiredHandshake = 8,  ///< retired: skipped on replay, never appended
};

struct JournalRecord {
  std::uint64_t lsn = 0;
  JournalRecordType type{};
  std::vector<std::uint8_t> payload;
};

/// What open() found on disk.
struct JournalOpenStats {
  std::uint64_t records_recovered = 0;
  std::uint64_t last_lsn = 0;
  bool tail_truncated = false;      ///< a torn final record was dropped
  std::uint64_t truncated_bytes = 0;
};

class Journal {
 public:
  struct Config {
    /// fsync after every append (the ack ⇒ durable contract). Off only
    /// for benches that measure the in-memory path.
    bool fsync_each_append = true;
  };

  static constexpr std::uint32_t kMagic = 0x4D534A4C;  // "MSJL"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kHeaderSize = 16;

  /// Open (or create) the journal at `path`, scanning existing records.
  /// A torn tail is truncated; interior corruption or a foreign header
  /// throws PersistenceError.
  explicit Journal(std::string path, Config config);
  explicit Journal(std::string path) : Journal(std::move(path), Config{}) {}

  /// The records recovered at open, in LSN order (moved out — call
  /// once, during recovery).
  [[nodiscard]] std::vector<JournalRecord> take_recovered();
  [[nodiscard]] const JournalOpenStats& open_stats() const { return stats_; }

  /// Append one record durably and return its LSN. Thread-safe. When
  /// this returns, the record survives a crash (fsync_each_append).
  std::uint64_t append(JournalRecordType type,
                       std::span<const std::uint8_t> payload);

  /// Compaction: durably drop every record (the caller has just written
  /// snapshots covering them). The LSN sequence continues.
  void truncate_all();

  /// Raise the next-LSN floor so appends continue above `last_lsn`. The
  /// journal file does not persist the sequence across truncate_all —
  /// after a crash that lands between compaction's truncate and the next
  /// append, the snapshots are the only carrier of the LSN high-water
  /// mark, and recovery must push it back in here or the next acked
  /// record would reuse LSN 1 and be replay-gated out behind the
  /// snapshot. No-op when the journal already scanned past it.
  void raise_lsn_floor(std::uint64_t last_lsn);

  [[nodiscard]] std::uint64_t last_lsn() const;
  /// Records appended since open or the last truncate_all (feeds the
  /// auto-compaction threshold).
  [[nodiscard]] std::uint64_t appended_since_compaction() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct State {
    util::DurableFile file;
    std::uint64_t next_lsn = 1;
    std::uint64_t appended = 0;
  };

  std::string path_;
  Config config_;
  JournalOpenStats stats_;
  std::vector<JournalRecord> recovered_;
  /// Single-shard Sharded instead of a bare mutex (the cloud-mutex
  /// rule): appends serialize here, which is also the fsync cost model.
  util::Sharded<State> state_{1};
};

}  // namespace medsen::cloud
