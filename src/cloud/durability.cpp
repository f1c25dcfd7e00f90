#include "cloud/durability.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
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

// The snapshot magics of older builds (the bodies carry an applied_lsn
// and a sealed payload), and the seal.epoch container's.
constexpr std::uint32_t kSnapRecordMagic = 0x4D445243;    // "MDRC"
constexpr std::uint32_t kSnapEnrollMagic = 0x4D44454E;    // "MDEN"
constexpr std::uint32_t kSnapRegistryMagic = 0x4D445247;  // "MDRG"
constexpr std::uint32_t kSealEpochMagic = 0x4D444550;     // "MDEP"
/// A sealed payload's prefix: u8 flag | u64 nonce.
constexpr std::size_t kSealedHeader = 1 + 8;

DurabilityConfig require_storage_key(DurabilityConfig config) {
  if (config.storage_key.empty())
    throw PersistenceError("durability: a storage key is required");
  return config;
}

std::string segment_file(const std::string& dir, std::uint64_t n) {
  return dir + "/seg-" + std::to_string(n) + ".wal";
}

/// How many segments `dir` holds. They must be seg-1.wal .. seg-<n>.wal
/// without a gap: a missing number is a lost segment.
std::uint64_t count_segments(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("seg-") && name.ends_with(".wal")) ++n;
  }
  for (std::uint64_t k = 1; k <= n; ++k)
    if (!util::file_exists(segment_file(dir, k)))
      throw PersistenceError("durability: segment " + std::to_string(k) +
                             " is missing from " + dir);
  return n;
}

/// The live journal, opened as the generation after the last segment.
Journal open_journal(const DurabilityConfig& config) {
  util::ensure_directory(config.dir);
  return Journal(config.dir + "/journal.wal", Journal::Config{config.fsync},
                 static_cast<std::uint32_t>(count_segments(config.dir) + 1));
}

}  // namespace

DurableState::DurableState(DurabilityConfig config)
    : config_(require_storage_key(std::move(config))),
      journal_(open_journal(config_)) {
  // An older build's crash between write_file_atomic's tmp fsync and
  // its rename strands a fully sealed <store>.snap.tmp whose nonces
  // recovery never reads; drop stale tmps before anything else so the
  // stranded ciphertext cannot outlive the nonce accounting.
  bool removed_tmp = false;
  for (const char* name : {"records", "enroll", "registry"})
    removed_tmp |=
        util::remove_file(config_.dir + "/" + name + ".snap.tmp");
  if (removed_tmp) util::sync_parent_dir(journal_path());
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
    prior = decode_guard("seal epoch", [&] {
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
std::string DurableState::segment_path(std::uint64_t n) const {
  return segment_file(config_.dir, n);
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
    std::span<const std::uint8_t> flagged, std::size_t limit) {
  return decode_guard("unseal_payload", [&]() -> std::vector<std::uint8_t> {
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
    const auto sealed = flagged.subspan(kSealedHeader);
    const auto head = sealed.first(std::min(limit, sealed.size()));
    std::vector<std::uint8_t> plain(head.begin(), head.end());
    crypto::Aes128Ctr ctr(
        std::span<const std::uint8_t, crypto::Aes128::kKeySize>(
            seal_key_.data(), crypto::Aes128::kKeySize),
        nonce);
    ctr.apply(plain);
    return plain;
  });
}

std::pair<std::string, std::uint64_t> DurableState::unseal_stored_header(
    std::span<const std::uint8_t> flagged) {
  // u32 identifier size | identifier | u64 session | u32 report size |
  // report: unseal the identifier's size, then the rest of the header.
  const auto size = unseal_payload(flagged, 4);
  return decode_guard("replay kRecordStored", [&] {
    const std::size_t header =
        4 + std::size_t{util::ByteReader(size).u32()} + 8 + 4;
    const auto prefix = unseal_payload(flagged, header);
    util::ByteReader in(prefix);
    auto key = in.str();
    const std::uint64_t session_id = in.u64();
    const std::uint32_t report = in.u32();
    if (flagged.size() - kSealedHeader != header + report)
      throw PersistenceError(
          "durability: a stored report's size does not match its record");
    return std::make_pair(std::move(key), session_id);
  });
}

std::pair<std::uint64_t, std::vector<std::uint8_t>>
DurableState::read_snapshot(const char* name, std::uint32_t magic) {
  const std::string path = config_.dir + "/" + name;
  if (!util::file_exists(path)) return {0, {}};
  const auto outer = unseal_blob(magic, util::read_file(path));
  return decode_guard("read_snapshot", [&] {
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
  stats.tail_truncated = journal_.tail_truncated();

  // An older build's snapshots first; this build only reads them. Each
  // store is gated on its own applied_lsn, so snapshots from different
  // compactions, and a log that repeats what they hold, still replay
  // exactly the missing suffix per store. The restores run under
  // decode_guard like the log replay below: a snapshot/server mismatch
  // (wrong alphabet, duplicate user) must surface as the typed
  // PersistenceError the persistence contract documents, not a raw
  // invalid_argument out of recovery.
  const auto [records_lsn, records_body] =
      read_snapshot("records.snap", kSnapRecordMagic);
  const auto [enroll_lsn, enroll_body] =
      read_snapshot("enroll.snap", kSnapEnrollMagic);
  const auto [registry_lsn, registry_body] =
      read_snapshot("registry.snap", kSnapRegistryMagic);
  decode_guard("snapshot restore", [&] {
    if (!records_body.empty())
      for (auto& [key, records] : decode_records_body(records_body))
        server.records().restore(key, std::move(records));
    if (!enroll_body.empty()) {
      const auto db = decode_enrollments_body(enroll_body);
      for (const auto& record : db.records())
        server.enrollments().enroll(record.user_id, record.code);
    }
    if (!registry_body.empty())
      server.devices().restore(decode_registry_body(registry_body));
  });
  stats.snapshots_loaded = !records_body.empty() || !enroll_body.empty() ||
                           !registry_body.empty();

  // Then the log, LSN-gated per store: the segments in order, then the
  // journal. Each file's LSNs must lie above the previous file's.
  std::uint64_t log_lsn = 0;
  const auto replay = [&](const JournalImage& records,
                          std::uint32_t generation, const std::string& path) {
    if (!records.empty() && records.front().lsn <= log_lsn)
      throw PersistenceError("durability: LSN " +
                             std::to_string(records.front().lsn) + " in " +
                             path + " is not above the previous file's");
    for (const auto& record : records) {
      // A stored report stays in the log: its replay unseals only the
      // identifier and session in front of it.
      const bool stored = record.type == JournalRecordType::kRecordStored;
      const auto payload =
          stored ? std::vector<std::uint8_t>{} : unseal_payload(record.payload);
      decode_guard("journal replay", [&] {
        util::ByteReader in(payload);
        switch (record.type) {
          case JournalRecordType::kRecordStored: {
            auto [key, session_id] = unseal_stored_header(record.payload);
            if (record.lsn <= records_lsn) return;
            server.records().index(
                std::move(key), session_id,
                {record.lsn, record.offset, generation,
                 static_cast<std::uint32_t>(record.payload.size())});
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
    if (!records.empty()) log_lsn = records.back().lsn;
  };
  const std::uint32_t live = journal_.generation();
  for (std::uint32_t n = 1; n < live; ++n) {
    replay(Journal::read_segment(segment_path(n)), n, segment_path(n));
    ++stats.segments_replayed;
  }
  replay(journal_.take_recovered(), live, journal_path());

  // A fresh journal does not carry the LSN sequence: after a rotation
  // or an upgrade the segments and snapshots are its only carriers.
  // Push their high-water mark into the journal before anything new is
  // appended, or fresh records would reuse gated-out LSNs.
  journal_.raise_lsn_floor(
      std::max({records_lsn, enroll_lsn, registry_lsn, log_lsn}));

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
  append_and_apply(type, std::move(payload), {},
                   [&](const FrameLocator&) { apply(); });
}

void DurableState::append_and_apply(
    JournalRecordType type, std::vector<std::uint8_t> payload,
    const std::function<void()>& validate,
    const std::function<void(const FrameLocator&)>& apply) {
  // Seal outside the gate (AES work off the lock), then validate,
  // journal and apply under it so compaction always sees memory ==
  // replay(journal). Validation must be inside the gate: outside it,
  // two racing mutations can both pass, both journal, and the loser's
  // apply() throws *after* its record is durable — every later replay
  // of that record then fails and the server can never boot.
  auto sealed = seal_payload(std::move(payload));
  gate_.with(0, [&](Gate&) {
    if (validate) validate();
    apply(journal_.append(type, sealed));
    // Auto-compaction: the append that reaches the threshold rotates.
    if (config_.compact_after_records != 0 &&
        journal_.appended_since_compaction() >= config_.compact_after_records)
      rotate_journal();
  });
}

void DurableState::log_record(
    const std::string& key, const StoredRecord& record,
    const std::function<void(const FrameLocator&)>& apply) {
  util::ByteWriter payload;
  payload.str(key);
  payload.u64(record.session_id);
  payload.blob(record.encrypted_result);
  append_and_apply(JournalRecordType::kRecordStored, payload.take(), {},
                   apply);
}

std::vector<std::uint8_t> DurableState::read_record(
    const std::string& key, std::uint64_t session_id, const FrameLocator& at) {
  const JournalRecord frame =
      journal_.read_frame(at, segment_path(at.generation));
  const auto mismatch = [&](const char* what) {
    return PersistenceError("durability: the frame at LSN " +
                            std::to_string(at.lsn) + " holds " + what);
  };
  if (frame.type != JournalRecordType::kRecordStored)
    throw mismatch("no stored record");
  const auto payload = unseal_payload(frame.payload);
  return decode_guard("read_record", [&] {
    util::ByteReader in(payload);
    if (in.str() != key) throw mismatch("another identifier's record");
    if (in.u64() != session_id) throw mismatch("another session's record");
    auto report = in.blob();
    in.expect_done("read_record");
    return report;
  });
}

void DurableState::log_user_enrolled(const std::string& user_id,
                                     const auth::CytoCode& code,
                                     const std::function<void()>& validate,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.str(user_id);
  payload.blob(auth::serialize_code(code));
  append_and_apply(JournalRecordType::kUserEnrolled, payload.take(), validate,
                   [&](const FrameLocator&) { apply(); });
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

void DurableState::compact(CloudServer& /*server*/) {
  gate_.with(0, [&](Gate&) {
    if (journal_.appended_since_compaction() != 0) rotate_journal();
  });
}

void DurableState::rotate_journal() {
  journal_.rotate(segment_path(journal_.generation()));
}

}  // namespace medsen::cloud
