#pragma once
// cloud::Journal — the checksummed, length-prefixed write-ahead log
// behind the cloud's ack ⇒ durable contract. Every state mutation the
// server acknowledges (stored record, enrollment, registry event) is
// appended — and fsync'd — here *before* the acknowledgement leaves the
// building. Compaction renames the journal into an immutable segment
// and starts a fresh one; recovery replays the segments, then the
// journal. See DESIGN.md "Durability model" and PROTOCOL.md for the
// wire format.
//
// On-disk layout (all integers little-endian; a segment is a journal
// file renamed, byte for byte):
//
//   header   u32 magic "MSJL" | u32 version | u32 flags | u32 reserved
//   record*  u32 body_len | u32 crc32(body) | body
//   body     u64 lsn | u8 type | payload bytes
//
// LSNs are strictly increasing and survive rotation (the next journal
// keeps counting), so "counters monotonic across restart" is checkable
// from the log alone.
//
// Torn-tail tolerance: a crash can tear only the *final* record of the
// live journal (appends are sequential), so a partial or CRC-broken
// record that reaches EOF is truncated away — it was never
// acknowledged, because the ack waits for fsync. A CRC-broken record
// with more records *after* it cannot be a torn append; that is real
// corruption and open() throws PersistenceError rather than silently
// dropping acknowledged state. A segment was complete when it was
// renamed, so read_segment() tolerates no damage at all, its last
// record included, and never truncates.
//
// A failed write or fsync never leaves a partial frame behind an
// acknowledged one: append() truncates the file back to the end of the
// last whole frame. If that truncate fails too, or a rotation fails
// after its rename, the journal refuses every later append with
// PersistenceError until it is reopened: its file may end in a partial
// frame, or its descriptor may still point at the renamed segment.
//
// Generations: segment n is generation n and the live journal is the
// generation after the last segment. A rotation renames the frames byte
// for byte, so a FrameLocator (generation, offset) stays valid across
// it, and read_frame() reads one frame back by its locator.
//
// A scan (open(), read_segment()) reads its file whole into a
// JournalImage and hands out views of the records' payloads inside it,
// so recovery holds one copy of a file at a time and none per record.

#include <algorithm>
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

/// One frame read back by its locator.
struct JournalRecord {
  std::uint64_t lsn = 0;
  JournalRecordType type{};
  std::vector<std::uint8_t> payload;
};

/// Bytes inside a JournalImage; equal to any byte range with the same
/// contents.
struct ByteView : std::span<const std::uint8_t> {
  using std::span<const std::uint8_t>::span;
  friend bool operator==(ByteView a, std::span<const std::uint8_t> b) {
    return std::ranges::equal(a, b);
  }
};

/// One record of a scanned file; its payload views the JournalImage.
struct JournalRecordView {
  std::uint64_t lsn = 0;
  JournalRecordType type{};
  ByteView payload;
  std::uint64_t offset = 0;  ///< the frame's first byte in its file
};

/// A journal or segment file read whole, and its valid records in LSN
/// order. The records view the image, so it is move-only: a move keeps
/// the image's buffer, and with it every view, in place.
class JournalImage {
 public:
  JournalImage() = default;
  JournalImage(JournalImage&&) noexcept = default;
  JournalImage& operator=(JournalImage&&) noexcept = default;
  JournalImage(const JournalImage&) = delete;
  JournalImage& operator=(const JournalImage&) = delete;

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const JournalRecordView& operator[](std::size_t i) const {
    return records_[i];
  }
  [[nodiscard]] const JournalRecordView& front() const {
    return records_.front();
  }
  [[nodiscard]] const JournalRecordView& back() const {
    return records_.back();
  }
  [[nodiscard]] auto begin() const { return records_.begin(); }
  [[nodiscard]] auto end() const { return records_.end(); }

 private:
  friend class Journal;
  std::vector<std::uint8_t> bytes_;
  std::vector<JournalRecordView> records_;
};

/// Where one frame sits in the log, and what it holds there.
struct FrameLocator {
  std::uint64_t lsn = 0;
  std::uint64_t offset = 0;  ///< the frame's first byte in its file
  std::uint32_t generation = 0;
  std::uint32_t payload_size = 0;
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

  /// Open (or create) the journal at `path`, scanning existing records,
  /// as log generation `generation` (the segment count + 1). A torn tail
  /// is truncated; interior corruption or a foreign header throws
  /// PersistenceError.
  explicit Journal(std::string path, Config config,
                   std::uint32_t generation = 1);
  explicit Journal(std::string path) : Journal(std::move(path), Config{}) {}

  /// The records recovered at open, in LSN order, with the file image
  /// they view (moved out — call once, during recovery).
  [[nodiscard]] JournalImage take_recovered();
  /// Did open() drop a torn final record?
  [[nodiscard]] bool tail_truncated() const { return tail_truncated_; }

  /// Append one record durably and return where its frame sits (its LSN
  /// included). Thread-safe. When this returns, the record survives a
  /// crash (fsync_each_append). A failed write or fsync throws after the
  /// file is cut back to its last whole frame.
  FrameLocator append(JournalRecordType type,
                      std::span<const std::uint8_t> payload);

  /// Compaction: rename the journal to `segment` (its frames byte for
  /// byte; it becomes the current generation's file) and start a fresh
  /// journal at path() as the next generation. The LSN sequence
  /// continues. The fresh file's creation fsyncs the directory, which
  /// makes the rename durable too.
  void rotate(const std::string& segment);

  /// Read back the frame `at` names, strictly: its length, CRC and LSN
  /// must match or PersistenceError is thrown. `segment` is the file
  /// generation at.generation was rotated into; whether the frame is
  /// still in the live journal is decided, and the frame read, under
  /// the append lock, so a racing rotate() never moves it in between.
  [[nodiscard]] JournalRecord read_frame(const FrameLocator& at,
                                         const std::string& segment) const;

  /// Read a segment strictly: a short or CRC-broken record anywhere,
  /// the last one included, a foreign header or a non-monotonic LSN
  /// throws PersistenceError. The file is never modified.
  [[nodiscard]] static JournalImage read_segment(const std::string& path);

  /// Raise the next-LSN floor so appends continue above `last_lsn`. A
  /// fresh journal does not carry the sequence: after a rotation (or an
  /// upgrade from snapshots) the segments and snapshots are its only
  /// carriers, and recovery must push their high-water mark in here or
  /// the next acked record would reuse LSN 1 and be replay-gated out.
  /// No-op when the journal already scanned past it.
  void raise_lsn_floor(std::uint64_t last_lsn);

  [[nodiscard]] std::uint64_t last_lsn() const;
  /// Records appended since open or the last rotation (feeds the
  /// auto-compaction threshold).
  [[nodiscard]] std::uint64_t appended_since_compaction() const;
  /// The live journal's generation (segments on disk + 1).
  [[nodiscard]] std::uint32_t generation() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct State {
    util::DurableFile file;
    std::uint64_t next_lsn = 1;
    std::uint64_t appended = 0;
    /// End of the last whole frame: where the next one starts, and what
    /// a failed append truncates back to.
    std::uint64_t end = 0;
    std::uint32_t generation = 1;
    /// A failed rollback or rotation: appends are refused until reopen.
    bool failed = false;
  };

  /// Create (or empty) the file at path_ and give it a synced header.
  void start_file(State& state) const;
  void refuse_if_failed(const State& state) const;

  std::string path_;
  Config config_;
  bool tail_truncated_ = false;
  JournalImage recovered_;
  /// Single-shard Sharded instead of a bare mutex (the cloud-mutex
  /// rule): appends serialize here, which is also the fsync cost model.
  util::Sharded<State> state_{1};
};

}  // namespace medsen::cloud
