#pragma once
// Cloud record storage: encrypted analysis outcomes are stored under the
// patient's cyto-coded identifier (paper Section V), so a practitioner
// with the patient's code — but no biometric, no account password — can
// fetch the history. Records are opaque ciphertext blobs to the cloud.
//
// Thread-safe and sharded: identifiers route deterministically to one of
// N independently-locked shards (util::Sharded, FNV-1a over the code's
// text form), so concurrent stores for different patients never contend.
// Readers only ever see copies — the internal maps are never leaked by
// reference. The counts lock one shard at a time: each shard's view is
// consistent, the whole is eventually consistent while writers are
// active.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "auth/identifier.h"
#include "util/sharded.h"

namespace medsen::cloud {

struct StoredRecord {
  std::uint64_t session_id = 0;
  std::vector<std::uint8_t> encrypted_result;
};

class RecordStore {
 public:
  /// `shards` 0 = hardware default; rounded up to a power of two.
  explicit RecordStore(std::size_t shards = 0) : shards_(shards) {}

  /// Append a record under an identifier.
  void store(const auth::CytoCode& code, StoredRecord record);

  /// Fetch all records for an identifier (empty when unknown).
  [[nodiscard]] std::vector<StoredRecord> fetch(
      const auth::CytoCode& code) const;

  /// Most recent record for an identifier.
  [[nodiscard]] std::optional<StoredRecord> latest(
      const auth::CytoCode& code) const;

  [[nodiscard]] std::size_t identifier_count() const;
  [[nodiscard]] std::size_t record_count() const;

  /// Reinstall one identifier's record list (an older build's
  /// records.snap).
  void restore(std::string key, std::vector<StoredRecord> records);
  /// Append one record under a pre-keyed identifier (journal replay —
  /// unlike restore(), existing records for the key are kept).
  void append(std::string key, StoredRecord record);

  [[nodiscard]] std::size_t shard_count() const {
    return shards_.shard_count();
  }

 private:
  using Entries = std::map<std::string, std::vector<StoredRecord>>;

  /// Identifier text -> shard route key (deterministic across runs).
  [[nodiscard]] static std::uint64_t route(const std::string& key) {
    return util::fnv1a64(std::string_view(key));
  }

  util::Sharded<Entries> shards_;  // each shard keyed by code text
};

}  // namespace medsen::cloud
