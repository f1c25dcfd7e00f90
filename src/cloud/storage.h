#pragma once
// Cloud record storage: encrypted analysis outcomes are stored under the
// patient's cyto-coded identifier (paper Section V), so a practitioner
// with the patient's code — but no biometric, no account password — can
// fetch the history. Records are opaque ciphertext blobs to the cloud.
//
// Where a report lives: with durability attached, the log (journal and
// segments, cloud/journal.h) already holds every stored report once, so
// the store keeps only an index entry per report — its session id and
// the FrameLocator of its kRecordStored frame — and fetch()/latest()
// read each report back from the log: one positioned read, a CRC and an
// unseal per record, checked strictly (length, CRC, LSN, type, and the
// decoded identifier and session), with any mismatch thrown as
// PersistenceError. A server without durability, and the records.snap
// an older build left, have no log to point into, so those reports stay
// in memory as bytes.
//
// Thread-safe and sharded: identifiers route deterministically to one of
// N independently-locked shards (util::Sharded, FNV-1a over the code's
// text form), so concurrent stores for different patients never contend.
// Readers only ever see copies — the internal maps are never leaked by
// reference, and reports are read from the log after the shard lock is
// released. The counts lock one shard at a time: each shard's view is
// consistent, the whole is eventually consistent while writers are
// active.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "auth/identifier.h"
#include "cloud/journal.h"
#include "util/sharded.h"

namespace medsen::cloud {

struct StoredRecord {
  std::uint64_t session_id = 0;
  std::vector<std::uint8_t> encrypted_result;
};

/// Reads one log-held report back: (identifier, session id, locator) ->
/// the report's bytes. Throws PersistenceError unless the frame holds
/// exactly that record.
using RecordReader = std::function<std::vector<std::uint8_t>(
    const std::string&, std::uint64_t, const FrameLocator&)>;

class RecordStore {
 public:
  /// `shards` 0 = hardware default; rounded up to a power of two.
  explicit RecordStore(std::size_t shards = 0) : shards_(shards) {}

  /// Append a record, held in memory, under an identifier.
  void store(const auth::CytoCode& code, StoredRecord record);
  /// Append a record the log holds at `at` under a pre-keyed identifier
  /// (a durable store or a replayed one): only the locator stays here.
  void index(std::string key, std::uint64_t session_id,
             const FrameLocator& at);
  /// Read log-held records through `reader`. Set once, before any
  /// index() and before the store is shared between threads.
  void attach_log(RecordReader reader) { reader_ = std::move(reader); }

  /// Fetch all records for an identifier (empty when unknown).
  [[nodiscard]] std::vector<StoredRecord> fetch(
      const auth::CytoCode& code) const;

  /// Most recent record for an identifier.
  [[nodiscard]] std::optional<StoredRecord> latest(
      const auth::CytoCode& code) const;

  [[nodiscard]] std::size_t identifier_count() const;
  [[nodiscard]] std::size_t record_count() const;

  /// Reinstall one identifier's record list, held in memory (an older
  /// build's records.snap).
  void restore(std::string key, std::vector<StoredRecord> records);

  [[nodiscard]] std::size_t shard_count() const {
    return shards_.shard_count();
  }

 private:
  /// One stored report: where the log holds it, or its bytes.
  struct Entry {
    std::uint64_t session_id = 0;
    std::variant<FrameLocator, std::vector<std::uint8_t>> report;
  };
  using Entries = std::map<std::string, std::vector<Entry>>;

  /// Identifier text -> shard route key (deterministic across runs).
  [[nodiscard]] static std::uint64_t route(const std::string& key) {
    return util::fnv1a64(std::string_view(key));
  }
  void append(std::string key, Entry entry);
  /// The record `entry` stands for, read from the log when it holds it.
  [[nodiscard]] StoredRecord read(const std::string& key, Entry entry) const;

  util::Sharded<Entries> shards_;  // each shard keyed by code text
  RecordReader reader_;
};

}  // namespace medsen::cloud
