#pragma once
// The cloud service endpoint. One CloudServer serves many enrolled
// MedSen dongles: `handle()` is the single request/response entrypoint —
// it admits (or sheds) the request, resolves the sender's MAC key from
// the device registry, verifies the envelope, consults the idempotent
// session cache, and routes on the message type. Every failure
// travels back as a kError envelope with a structured ErrorPayload;
// exceptions never cross the service boundary. Curious-but-honest: the
// server follows the protocol faithfully but sees only ciphertext
// cytometry.
//
// The service layer is sharded by device_id (see DESIGN.md "Sharded
// service layer"): the registry, the session cache, and the stats
// counters all route a request to per-device shards, so handling a
// request never takes a process-wide lock and never touches a shard
// another device's request is using.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "auth/verifier.h"
#include "cloud/analysis_service.h"
#include "cloud/dispatch.h"
#include "cloud/quality.h"
#include "cloud/session_auth.h"
#include "cloud/session_cache.h"
#include "cloud/storage.h"
#include "net/messages.h"

namespace medsen::cloud {

class DurableState;    // cloud/durability.h
struct RecoveryStats;  // cloud/durability.h (complete at call sites)

/// Service-boundary knobs (the analysis knobs live in AnalysisConfig).
struct ServiceConfig {
  /// Quality gate applied to every upload; disable for raw benchmarks.
  bool quality_gate = true;
  /// Admission limit: at most this many requests inside the service at
  /// once; excess requests are shed with an `overloaded` error
  /// (0 = unbounded).
  std::size_t max_inflight = 0;
  /// Shard count for the registry, session cache, record store and
  /// stats (0 = hardware default, rounded up to a power of two; 1
  /// reproduces the old single-lock layout as a contention baseline).
  std::size_t shards = 0;
  /// Total session-cache capacity in cached exchanges; past it the
  /// least recently replayed sessions are evicted (0 = unbounded).
  std::size_t session_cache_capacity = 1u << 16;
  /// Seed for the server's deterministic handshake-nonce (RndB)
  /// derivation. The nonce is KDF'd from the *device key* with this
  /// seed, the device id, the server-wide handshake ordinal
  /// (boot_epoch << 32 | n, see attach_durability) and the device's RndA
  /// in the context, so it is unpredictable to anyone without the key
  /// yet fully reproducible in tests (no OS entropy — the determinism
  /// lint applies to the cloud too).
  std::uint64_t challenge_seed = 0x9e3779b97f4a7c15ull;
  /// When false, counter-0 command traffic on the legacy static-key
  /// plane is refused with kAuthRequired — only the handshake itself
  /// rides counter 0, and every command needs a negotiated session.
  /// Defaults to true so mixed fleets upgrade incrementally.
  bool allow_legacy_plane = true;
};

class CloudServer {
 public:
  /// One thread pool is shared across all requests the server handles
  /// (uploads and auth passes); pass `pool` to share it wider (e.g. with
  /// streaming analyzers), or leave it null to let the analysis service
  /// size one from analysis_config.threads (0 = hardware concurrency,
  /// 1 = fully serial).
  CloudServer(AnalysisConfig analysis_config, auth::CytoAlphabet alphabet,
              auth::ParticleClassifier classifier,
              auth::VerifierConfig verifier_config = {},
              std::shared_ptr<util::ThreadPool> pool = nullptr,
              ServiceConfig service = {});

  /// The service boundary: route any request envelope to its handler and
  /// return the response envelope. Thread-safe; call it from as many
  /// client threads as you like. Failures (unknown device, bad MAC,
  /// quality rejection, malformed payload, overload, session conflict)
  /// come back as kError envelopes carrying a net::ErrorPayload — this
  /// method only throws on programmer errors.
  net::Envelope handle(const net::Envelope& request);

  /// Attach a durability layer: first recovers the journal + snapshots
  /// under `durable` into this server's stores, then journals every
  /// subsequent mutation (enroll/revoke/rotate/retire, user
  /// enrollment, stored record) before it is applied — the
  /// ack ⇒ durable contract. It also moves handshake ordinals into
  /// this boot's range, `durable.boot_epoch() << 32 | n`; handshakes
  /// journal nothing. Call once, on a freshly constructed server,
  /// before serving traffic. Returns what recovery found.
  RecoveryStats attach_durability(DurableState& durable);

  /// The device registry: enroll each dongle before it may talk to
  /// this server.
  [[nodiscard]] DeviceRegistry& devices() { return devices_; }
  /// Diversified enrollment: the registry records only the id; the
  /// device's key is derived on demand from the epoch master.
  void enroll_device(std::uint64_t device_id);
  /// Revoke a device and kill its live session.
  bool revoke_device(std::uint64_t device_id);
  /// Install a new master-key epoch and re-key the fleet: every live
  /// session is dropped, forcing fresh handshakes under the new epoch
  /// (old epochs keep deriving until retired, so devices still
  /// personalized under them can hand-shake through the grace window).
  void rotate_master_key(std::uint32_t epoch,
                         std::vector<std::uint8_t> master);
  /// Drop a master-key epoch (devices personalized under it can no
  /// longer handshake). Returns false when the epoch was unknown.
  bool retire_epoch(std::uint32_t epoch);
  /// Enroll a user's cyto-code in the identity database. Validation
  /// failures throw std::invalid_argument *before* anything is
  /// journaled, exactly like EnrollmentDatabase::enroll.
  void enroll_user(const std::string& user_id, const auth::CytoCode& code);

  /// The admission gate (exposed so tests and load shedders can hold
  /// slots directly).
  [[nodiscard]] AdmissionGate& admission() { return admission_; }

  /// Store an encrypted result under an identifier (journaled when a
  /// durability layer is attached — the record is on disk when this
  /// returns).
  void store_result(const auth::CytoCode& code, StoredRecord record);

  [[nodiscard]] AnalysisService& analysis() { return analysis_; }
  /// The request-shared analysis pool (null when running serial).
  [[nodiscard]] const std::shared_ptr<util::ThreadPool>& thread_pool() const {
    return analysis_.thread_pool();
  }
  [[nodiscard]] auth::EnrollmentDatabase& enrollments() { return db_; }
  [[nodiscard]] const auth::Verifier& verifier() const { return verifier_; }
  [[nodiscard]] RecordStore& records() { return store_; }
  /// The idempotent session cache (exposed so tests and capacity
  /// planners can watch occupancy and evictions).
  [[nodiscard]] SessionCache& session_cache() { return cache_; }
  /// The negotiated-session table (keys + anti-replay windows).
  [[nodiscard]] SessionAuthTable& sessions() { return sessions_; }

  /// Snapshot of the aggregate counters. Aggregated from per-shard
  /// atomics on read: eventually consistent while requests are in
  /// flight, exact once they drain.
  [[nodiscard]] ServiceStats stats() const;
  /// Requests fully processed (cache misses) and replays served from the
  /// session cache. The reliable transport retries lost responses by
  /// re-uploading, so duplicate session_ids are expected in normal
  /// operation and must not trigger a second analysis.
  [[nodiscard]] std::uint64_t requests_processed() const;
  [[nodiscard]] std::uint64_t replays_served() const;

 private:
  /// Handlers, one per routable MessageType. They run after admission
  /// + device resolution + MAC verification.
  ServiceResult serve_upload(const net::Envelope& request);
  ServiceResult serve_auth_pass(const net::Envelope& request);
  ServiceResult serve_handshake(const net::Envelope& request,
                                const util::SecretBytes& mac_key);

  /// Resolve the key that must verify `request` (long-term, epoch
  /// derivation for handshakes, or the negotiated session key), or the
  /// kError envelope to return when resolution fails.
  struct ResolvedKey {
    std::optional<util::SecretBytes> key;
    std::optional<net::Envelope> error;
    bool session_plane = false;
  };
  ResolvedKey resolve_mac_key(const net::Envelope& request);

  util::MultiChannelSeries decode_series(
      const net::SignalUploadPayload& payload) const;
  net::Envelope error_response(const net::Envelope& request,
                               std::span<const std::uint8_t> mac_key,
                               net::ErrorCode code, std::uint8_t subcode,
                               std::string detail,
                               std::vector<std::uint8_t> channel_reasons = {});

  AnalysisService analysis_;
  auth::EnrollmentDatabase db_;
  auth::Verifier verifier_;
  RecordStore store_;
  DeviceRegistry devices_;
  AdmissionGate admission_;
  const bool quality_gate_;
  SessionCache cache_;
  SessionAuthTable sessions_;
  ServiceCounters counters_;
  std::uint64_t challenge_seed_;
  bool allow_legacy_plane_;
  /// Handshake ordinals: this boot's epoch (0 without durability) and
  /// the next ordinal, boot_epoch << 32 | n. An ordinal outside the
  /// epoch's range fails the handshake closed.
  std::uint64_t ordinal_epoch_ = 0;
  std::atomic<std::uint64_t> next_ordinal_{1};
  /// Optional WAL (attach_durability). Not owned; must outlive serving.
  DurableState* durable_ = nullptr;
};

}  // namespace medsen::cloud
