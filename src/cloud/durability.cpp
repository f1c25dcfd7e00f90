#include "cloud/durability.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "cloud/persistence.h"
#include "cloud/server.h"
#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "util/crash_point.h"
#include "util/fileio.h"
#include "util/secure_zero.h"
#include "util/serialize.h"

namespace medsen::cloud {

namespace {

// Durable-snapshot magics (the bodies carry an applied_lsn and a sealed
// payload).
constexpr std::uint32_t kSnapRecordMagic = 0x4D445243;    // "MDRC"
constexpr std::uint32_t kSnapEnrollMagic = 0x4D44454E;    // "MDEN"
constexpr std::uint32_t kSnapRegistryMagic = 0x4D445247;  // "MDRG"
constexpr std::uint32_t kSealEpochMagic = 0x4D444550;     // "MDEP"

DurabilityConfig require_storage_key(DurabilityConfig config) {
  if (config.storage_key.empty())
    throw PersistenceError("durability: a storage key is required");
  return config;
}

std::string journal_file_for(const DurabilityConfig& config) {
  util::ensure_directory(config.dir);
  return config.dir + "/journal.wal";
}

template <typename Fn>
auto replay_guard(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const PersistenceError&) {
    throw;
  } catch (const util::SimulatedCrash&) {
    throw;
  } catch (const std::exception& e) {
    throw PersistenceError(std::string(what) + ": " + e.what());
  }
}

}  // namespace

DurableState::DurableState(DurabilityConfig config)
    : config_(require_storage_key(std::move(config))),
      journal_(journal_file_for(config_),
               Journal::Config{config_.fsync}) {
  // A crash between write_file_atomic's tmp fsync and its rename
  // strands a fully sealed <store>.snap.tmp whose nonces recovery never
  // reads; drop stale tmps before anything else so the stranded
  // ciphertext cannot outlive the nonce accounting.
  bool removed_tmp = false;
  for (const auto& path :
       {records_snapshot_path(), enroll_snapshot_path(),
        registry_snapshot_path()})
    removed_tmp |= util::remove_file(path + ".tmp");
  if (removed_tmp) util::sync_parent_dir(records_snapshot_path());
  auto normalized =
      crypto::normalize_cmac_key(config_.storage_key);  // medsen: secret
  seal_key_.adopt(crypto::kdf_cmac(normalized, "medsen-store", {},
                                   crypto::Aes128::kKeySize));
  util::secure_wipe(normalized);
  bump_seal_epoch();
}

void DurableState::bump_seal_epoch() {
  // Epoch-partitioned nonces: the durably persisted boot counter forms
  // the high 32 bits of every nonce this process seals with, so this
  // lifetime's nonce space is disjoint from every other's — including
  // nonces that reached disk but are invisible to recovery (stranded
  // snapshot tmps, torn journal tails). The bump is written *before*
  // the first seal, so a crash mid-bump costs an epoch number, never a
  // reuse.
  std::uint64_t prior = 0;
  const auto path = seal_epoch_path();
  if (util::file_exists(path)) {
    const auto body = unseal_blob(kSealEpochMagic, util::read_file(path));
    prior = replay_guard("seal epoch", [&] {
      util::ByteReader in(body);
      const std::uint64_t epoch = in.u64();
      in.expect_done("seal epoch");
      return epoch;
    });
  }
  if (prior >= 0xFFFFFFFFull)
    throw PersistenceError("durability: seal epoch space exhausted");
  seal_epoch_ = prior + 1;
  util::ByteWriter body;
  body.u64(seal_epoch_);
  util::write_file_atomic(path, seal_blob(kSealEpochMagic, body.take()));
  nonce_.store((seal_epoch_ << 32) | 1, std::memory_order_relaxed);
}

std::string DurableState::journal_path() const {
  return config_.dir + "/journal.wal";
}
std::string DurableState::records_snapshot_path() const {
  return config_.dir + "/records.snap";
}
std::string DurableState::enroll_snapshot_path() const {
  return config_.dir + "/enroll.snap";
}
std::string DurableState::registry_snapshot_path() const {
  return config_.dir + "/registry.snap";
}
std::string DurableState::seal_epoch_path() const {
  return config_.dir + "/seal.epoch";
}

std::vector<std::uint8_t> DurableState::seal_payload(
    std::vector<std::uint8_t> payload) {
  const std::uint64_t nonce =
      nonce_.fetch_add(1, std::memory_order_relaxed);
  // A nonce outside this boot's epoch partition could collide with one
  // issued by another lifetime; refuse to seal rather than risk CTR
  // keystream reuse. Unreachable short of 2^32 seals in one process or
  // a rewound seal.epoch file.
  if ((nonce >> 32) != seal_epoch_)
    throw PersistenceError("durability: sealing nonce outside this boot's "
                           "epoch space");
  crypto::Aes128Ctr ctr(
      std::span<const std::uint8_t, crypto::Aes128::kKeySize>(
          seal_key_.data(), crypto::Aes128::kKeySize),
      nonce);
  ctr.apply(payload);
  util::ByteWriter out;
  out.u8(1);
  out.u64(nonce);
  out.bytes(payload);
  return out.take();
}

std::vector<std::uint8_t> DurableState::unseal_payload(
    std::span<const std::uint8_t> flagged) {
  return replay_guard("unseal_payload", [&]() -> std::vector<std::uint8_t> {
    util::ByteReader in(flagged);
    if (in.u8() != 1)
      throw PersistenceError("durability: payload is not sealed");
    const std::uint64_t nonce = in.u64();
    // Defense in depth: keep the counter ahead of every nonce actually
    // observed. The real reuse guarantee is the epoch partition (state
    // written by pre-epoch builds, or after a rewound seal.epoch file,
    // can carry nonces at or above this boot's base — raising past them
    // makes seal_payload fail closed rather than reuse).
    std::uint64_t expected = nonce_.load(std::memory_order_relaxed);
    while (nonce + 1 > expected &&
           !nonce_.compare_exchange_weak(expected, nonce + 1,
                                         std::memory_order_relaxed)) {
    }
    std::vector<std::uint8_t> plain(flagged.begin() + 9, flagged.end());
    crypto::Aes128Ctr ctr(
        std::span<const std::uint8_t, crypto::Aes128::kKeySize>(
            seal_key_.data(), crypto::Aes128::kKeySize),
        nonce);
    ctr.apply(plain);
    return plain;
  });
}

void DurableState::write_snapshot(const std::string& path,
                                  std::uint32_t magic,
                                  std::uint64_t applied_lsn,
                                  std::vector<std::uint8_t> body) {
  util::ByteWriter outer;
  outer.u64(applied_lsn);
  outer.blob(seal_payload(std::move(body)));
  util::write_file_atomic(path, seal_blob(magic, outer.take()));
}

std::pair<std::uint64_t, std::vector<std::uint8_t>>
DurableState::read_snapshot(const std::string& path, std::uint32_t magic) {
  if (!util::file_exists(path)) return {0, {}};
  const auto outer = unseal_blob(magic, util::read_file(path));
  return replay_guard("read_snapshot", [&] {
    util::ByteReader in(outer);
    const std::uint64_t applied_lsn = in.u64();
    const auto flagged = in.blob();
    in.expect_done("read_snapshot");
    return std::make_pair(applied_lsn, unseal_payload(flagged));
  });
}

RecoveryStats DurableState::recover_into(CloudServer& server) {
  const auto started = std::chrono::steady_clock::now();
  RecoveryStats stats;
  stats.tail_truncated = journal_.open_stats().tail_truncated;

  // Snapshots first. Each store is gated on its own applied_lsn, so a
  // crash between compaction's snapshot writes (mixed generations) still
  // replays exactly the missing suffix per store.
  // Each apply loop runs under replay_guard like journal replay below:
  // a snapshot/server mismatch (wrong alphabet, duplicate user) must
  // surface as the typed PersistenceError the persistence contract
  // documents, not a raw invalid_argument out of recovery.
  const auto [records_lsn, records_body] =
      read_snapshot(records_snapshot_path(), kSnapRecordMagic);
  if (records_lsn != 0 || !records_body.empty()) {
    replay_guard("snapshot restore (records)", [&] {
      for (auto& [key, records] : decode_records_body(records_body))
        server.records().restore(key, std::move(records));
    });
    stats.snapshots_loaded = true;
  }
  const auto [enroll_lsn, enroll_body] =
      read_snapshot(enroll_snapshot_path(), kSnapEnrollMagic);
  if (enroll_lsn != 0 || !enroll_body.empty()) {
    replay_guard("snapshot restore (enrollments)", [&] {
      const auto db = decode_enrollments_body(enroll_body);
      for (const auto& record : db.records())
        server.enrollments().enroll(record.user_id, record.code);
    });
    stats.snapshots_loaded = true;
  }
  const auto [registry_lsn, registry_body] =
      read_snapshot(registry_snapshot_path(), kSnapRegistryMagic);
  if (registry_lsn != 0 || !registry_body.empty()) {
    replay_guard("snapshot restore (registry)", [&] {
      server.devices().restore(decode_registry_body(registry_body));
    });
    stats.snapshots_loaded = true;
  }

  // The snapshots are the only carrier of the LSN sequence across a
  // crash that lands between compaction's truncate and the next append:
  // push their high-water mark back into the journal before anything new
  // is appended, or fresh records would reuse gated-out LSNs.
  journal_.raise_lsn_floor(std::max({records_lsn, enroll_lsn, registry_lsn}));

  // Journal replay, LSN-gated per store.
  for (const auto& record : journal_.take_recovered()) {
    const auto payload = unseal_payload(record.payload);
    replay_guard("journal replay", [&] {
      util::ByteReader in(payload);
      switch (record.type) {
        case JournalRecordType::kRecordStored: {
          const std::string key = in.str();
          StoredRecord stored;
          stored.session_id = in.u64();
          stored.encrypted_result = in.blob();
          in.expect_done("replay kRecordStored");
          if (record.lsn <= records_lsn) return;
          server.records().append(key, std::move(stored));
          ++stats.stored_records;
          break;
        }
        case JournalRecordType::kUserEnrolled: {
          const std::string user = in.str();
          const auto code = auth::deserialize_code(in.blob());
          in.expect_done("replay kUserEnrolled");
          if (record.lsn <= enroll_lsn) return;
          server.enrollments().enroll(user, code);
          ++stats.user_enrollments;
          break;
        }
        case JournalRecordType::kDeviceEnrolled: {
          const std::uint64_t id = in.u64();
          in.expect_done("replay kDeviceEnrolled");
          if (record.lsn <= registry_lsn) return;
          server.devices().enroll(id);
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kDeviceRevoked: {
          const std::uint64_t id = in.u64();
          in.expect_done("replay kDeviceRevoked");
          if (record.lsn <= registry_lsn) return;
          server.devices().revoke(id);
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kMasterRotated: {
          const std::uint32_t epoch = in.u32();
          auto master = in.blob();
          in.expect_done("replay kMasterRotated");
          if (record.lsn <= registry_lsn) return;
          server.devices().set_master_key(epoch, std::move(master));
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kEpochRetired: {
          const std::uint32_t epoch = in.u32();
          in.expect_done("replay kEpochRetired");
          if (record.lsn <= registry_lsn) return;
          server.devices().retire_epoch(epoch);
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kRetiredHandshake:
          // An older build's per-device ordinal (u64 device, u64
          // ordinal), checked for that shape and skipped: every ordinal
          // this build issues is at least 2^32, above all of them.
          in.u64();
          in.u64();
          in.expect_done("replay retired type 8");
          return;
        default:
          throw PersistenceError(
              "journal: unknown record type " +
              std::to_string(static_cast<unsigned>(record.type)));
      }
      ++stats.records_replayed;
    });
  }

  stats.last_lsn = journal_.last_lsn();
  stats.replay_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  recovery_ = stats;
  util::crash_point("durability.recover.done");
  return stats;
}

void DurableState::append_and_apply(JournalRecordType type,
                                    std::vector<std::uint8_t> payload,
                                    const std::function<void()>& apply) {
  append_and_apply(type, std::move(payload), {}, apply);
}

void DurableState::append_and_apply(JournalRecordType type,
                                    std::vector<std::uint8_t> payload,
                                    const std::function<void()>& validate,
                                    const std::function<void()>& apply) {
  // Seal outside the gate (AES work off the lock), then validate,
  // journal and apply under it so compaction always sees memory ==
  // replay(journal). Validation must be inside the gate: outside it,
  // two racing mutations can both pass, both journal, and the loser's
  // apply() throws *after* its record is durable — every later replay
  // of that record then fails and the server can never boot.
  auto sealed = seal_payload(std::move(payload));
  gate_.with(0, [&](Gate&) {
    if (validate) validate();
    journal_.append(type, sealed);
    apply();
  });
}

void DurableState::log_record(const std::string& key,
                              const StoredRecord& record,
                              const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.str(key);
  payload.u64(record.session_id);
  payload.blob(record.encrypted_result);
  append_and_apply(JournalRecordType::kRecordStored, payload.take(), apply);
}

void DurableState::log_user_enrolled(const std::string& user_id,
                                     const auth::CytoCode& code,
                                     const std::function<void()>& validate,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.str(user_id);
  payload.blob(auth::serialize_code(code));
  append_and_apply(JournalRecordType::kUserEnrolled, payload.take(), validate,
                   apply);
}

void DurableState::log_enroll_device(std::uint64_t device_id,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u64(device_id);
  append_and_apply(JournalRecordType::kDeviceEnrolled, payload.take(), apply);
}

void DurableState::log_revoke(std::uint64_t device_id,
                              const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u64(device_id);
  append_and_apply(JournalRecordType::kDeviceRevoked, payload.take(), apply);
}

void DurableState::log_master_rotated(std::uint32_t epoch,
                                      std::span<const std::uint8_t> master,
                                      const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u32(epoch);
  payload.blob(master);
  append_and_apply(JournalRecordType::kMasterRotated, payload.take(), apply);
}

void DurableState::log_epoch_retired(std::uint32_t epoch,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u32(epoch);
  append_and_apply(JournalRecordType::kEpochRetired, payload.take(), apply);
}

void DurableState::compact(CloudServer& server) {
  gate_.with(0, [&](Gate&) {
    if (journal_.appended_since_compaction() == 0) return;
    util::crash_point("durability.compact.begin");
    const std::uint64_t lsn = journal_.last_lsn();
    write_snapshot(records_snapshot_path(), kSnapRecordMagic, lsn,
                   encode_records_body(server.records()));
    util::crash_point("durability.compact.records_written");
    write_snapshot(enroll_snapshot_path(), kSnapEnrollMagic, lsn,
                   encode_enrollments_body(server.enrollments()));
    write_snapshot(registry_snapshot_path(), kSnapRegistryMagic, lsn,
                   encode_registry_body(server.devices()));
    util::crash_point("durability.compact.snapshots_written");
    journal_.truncate_all();
    util::crash_point("durability.compact.done");
  });
}

void DurableState::maybe_compact(CloudServer& server) {
  if (config_.compact_after_records == 0) return;
  if (journal_.appended_since_compaction() < config_.compact_after_records)
    return;
  compact(server);
}

}  // namespace medsen::cloud
