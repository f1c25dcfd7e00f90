#pragma once
// The cloud's service plumbing, independent of what the handlers do:
//
//  - DeviceRegistry: device_id -> per-device MAC key, so one server
//    serves many sensors (multi-tenant). Each dongle's key is derived
//    on demand from a per-epoch master key, so the registry holds no
//    per-device secret. Sharded by device_id: a lookup only locks the
//    key's shard, so a fleet of devices never serializes on one
//    registry mutex.
//  - AdmissionGate: a bounded in-flight counter, lock-free. Past the
//    limit the server sheds requests with an `overloaded` error instead
//    of queueing unboundedly on the shared analysis pool.
//  - ServiceCounters: per-shard relaxed std::atomic service counters,
//    aggregated on read — the hot path never takes a stats lock, and a
//    stats() snapshot is eventually consistent (it may miss an update
//    racing the read, never report a torn one).
//  - ServiceResult: a handler's outcome as data. Failures are values
//    that become kError envelopes at the boundary; exceptions are
//    reserved for programmer errors.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/messages.h"
#include "util/secret_bytes.h"
#include "util/sharded.h"

namespace medsen::cloud {

/// A consistent, deterministic dump of registry state for persistence:
/// every collection is sorted, so serialization never iterates an
/// unordered container (the unordered-serial lint rule) and sealed
/// snapshots are byte-identical across runs. This is the one sanctioned
/// secret-to-plaintext boundary: keys leave their SecretBytes holders
/// here precisely so the persistence layer can seal them to disk.
struct RegistrySnapshot {  // medsen: allow(secret-flow)
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
      masters;  ///< sorted by epoch
  std::uint32_t current_epoch = 0;
  std::vector<std::uint64_t> enrolled;  ///< sorted device ids
  std::vector<std::uint64_t> revoked;   ///< sorted device ids
};

/// Thread-safe, sharded device registry. It stores one 16-byte *master
/// key per epoch* plus id-only enrollment and revocation sets, and
/// derives a device's long-term key on demand as
/// crypto::diversify_device_key(master[epoch], id, epoch). A
/// million-device fleet holds zero per-device secrets, so a leaked
/// registry leaks no device key, and rotating the master key — a new
/// epoch — re-keys the whole fleet in one operation. Revoked devices
/// resolve to nothing until re-enrolled.
///
/// Routing is deterministic (util::Sharded FNV-1a): the same device
/// always lands on the same shard for a given shard count.
class DeviceRegistry {
 public:
  /// `shards` 0 = hardware default; rounded up to a power of two.
  explicit DeviceRegistry(std::size_t shards = 0)
      : shards_(shards), masters_(1) {}

  /// Remove a device from the enrollment set and put it on the
  /// revocation list; returns false when it was never enrolled.
  bool revoke(std::uint64_t device_id);
  /// Diversified enrollment: record the id (no secret). Clears
  /// revocation. The device's key is derived on demand.
  void enroll(std::uint64_t device_id);
  [[nodiscard]] bool is_revoked(std::uint64_t device_id) const;

  /// The device's long-term key under the *current* epoch, or nullopt
  /// when unknown or revoked.
  [[nodiscard]] std::optional<util::SecretBytes> lookup(
      std::uint64_t device_id) const;
  /// Like lookup(), but derives under a specific epoch — the rotation
  /// grace path for devices still personalized under an older master.
  /// nullopt when that epoch's master is gone (retired) or the device
  /// is not enrolled.
  [[nodiscard]] std::optional<util::SecretBytes> lookup_epoch(
      std::uint64_t device_id, std::uint32_t key_epoch) const;

  /// Install the master key for an epoch (16 bytes) and make it
  /// current. Old epochs stay derivable until retire_epoch().
  void set_master_key(std::uint32_t epoch, std::vector<std::uint8_t> master);
  /// Drop an epoch's master: devices personalized under it can no
  /// longer authenticate until re-personalized.
  bool retire_epoch(std::uint32_t epoch);
  [[nodiscard]] std::uint32_t current_epoch() const;
  [[nodiscard]] bool has_epoch(std::uint32_t epoch) const;

  /// Enrolled devices (revoked ones excluded).
  [[nodiscard]] std::size_t size() const;

  /// Deterministic full-state dump / restore for persistence.
  [[nodiscard]] RegistrySnapshot snapshot() const;
  void restore(const RegistrySnapshot& snapshot);

  [[nodiscard]] std::size_t shard_count() const {
    return shards_.shard_count();
  }
  /// Which shard a device routes to (deterministic; exposed for tests
  /// and for operators debugging shard balance).
  [[nodiscard]] std::size_t shard_of(std::uint64_t device_id) const {
    return shards_.shard_index(device_id);
  }

 private:
  /// Per-device state, sharded by device id.
  struct DeviceShard {
    std::unordered_set<std::uint64_t> enrolled;
    std::unordered_set<std::uint64_t> revoked;
  };
  /// Fleet-wide keying state: tiny and rarely written, so it lives in a
  /// single-shard Sharded (routed with key 0) rather than a bare mutex.
  struct MasterState {
    std::unordered_map<std::uint32_t, util::SecretBytes> by_epoch;
    std::uint32_t current_epoch = 0;
  };

  util::Sharded<DeviceShard> shards_;
  util::Sharded<MasterState> masters_;
};

/// Bounded admission: at most `max_inflight` requests are inside the
/// service at once (0 = unbounded). Excess requests are shed immediately
/// — the caller turns a failed ticket into an `overloaded` error.
/// Lock-free: entering is one fetch_add on a shared atomic, so admission
/// never becomes the global serialization point the mutex version was.
class AdmissionGate {
 public:
  explicit AdmissionGate(std::size_t max_inflight = 0)
      : limit_(max_inflight) {}

  /// RAII admission slot; releases on destruction.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { release(); }

    [[nodiscard]] bool admitted() const { return gate_ != nullptr; }
    void release();

   private:
    friend class AdmissionGate;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    AdmissionGate* gate_ = nullptr;
  };

  /// Try to enter; the ticket reports whether admission succeeded.
  /// Never admits more than `limit()` concurrent holders (the counter
  /// may transiently overshoot while a shed request backs out, but a
  /// ticket is only issued when the post-increment count is in bounds).
  [[nodiscard]] Ticket try_enter();

  [[nodiscard]] std::size_t limit() const { return limit_; }
  [[nodiscard]] std::size_t in_flight() const;
  /// Requests shed since construction.
  [[nodiscard]] std::uint64_t shed_total() const;

 private:
  std::size_t limit_;
  /// Every request writes this twice, from every client thread: its own
  /// cache line keeps the read-mostly server fields laid out next to the
  /// gate from being invalidated along with it.
  alignas(64) std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> shed_{0};
};

/// Aggregate service counters (all monotonic).
struct ServiceStats {
  std::uint64_t requests_processed = 0;  ///< cache-miss successes
  std::uint64_t replays_served = 0;      ///< idempotent cache hits
  std::uint64_t errors_returned = 0;     ///< kError responses sent
  std::uint64_t requests_shed = 0;       ///< refused by the admission gate
  std::uint64_t handshakes_completed = 0;  ///< sessions established
  std::uint64_t counter_rejections = 0;  ///< stale/replayed command counters
  double processing_time_s = 0.0;        ///< summed handler wall-clock
};

/// Per-shard relaxed atomic counters behind ServiceStats. Increments
/// route by device_id so a hot device's counters stay on one cache line
/// and fleets spread across shards; aggregate() sums the shards, giving
/// an eventually-consistent (never torn) snapshot. Wall-clock is summed
/// in integer nanoseconds — atomic<double> accumulation isn't portable
/// and the hot path must stay a plain fetch_add.
class ServiceCounters {
 public:
  explicit ServiceCounters(std::size_t shards = 0);

  void count_processed(std::uint64_t device_id, double processing_time_s);
  void count_replay(std::uint64_t device_id);
  void count_error(std::uint64_t device_id);
  void count_shed(std::uint64_t device_id);
  void count_handshake(std::uint64_t device_id);
  void count_counter_rejection(std::uint64_t device_id);

  [[nodiscard]] ServiceStats aggregate() const;
  [[nodiscard]] std::size_t shard_count() const { return count_; }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> requests_processed{0};
    std::atomic<std::uint64_t> replays_served{0};
    std::atomic<std::uint64_t> errors_returned{0};
    std::atomic<std::uint64_t> requests_shed{0};
    std::atomic<std::uint64_t> handshakes_completed{0};
    std::atomic<std::uint64_t> counter_rejections{0};
    std::atomic<std::uint64_t> processing_time_ns{0};
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t device_id) {
    return shards_[static_cast<std::size_t>(util::fnv1a64(device_id)) &
                   (count_ - 1)];
  }

  std::size_t count_;
  std::unique_ptr<Shard[]> shards_;
};

/// A handler's outcome. Success carries the response payload; failure
/// carries the structured error that becomes a kError envelope.
struct ServiceResult {
  bool ok = false;
  net::MessageType response_type = net::MessageType::kError;
  std::vector<std::uint8_t> response_payload;
  net::ErrorCode error = net::ErrorCode::kMalformed;
  std::uint8_t error_subcode = 0;
  std::string detail;
  /// Per-channel QualityReason bytes for quality failures (empty
  /// otherwise); copied into ErrorPayload::channel_reasons.
  std::vector<std::uint8_t> error_channel_reasons;

  static ServiceResult success(net::MessageType type,
                               std::vector<std::uint8_t> payload);
  static ServiceResult failure(net::ErrorCode code, std::string detail,
                               std::uint8_t subcode = 0,
                               std::vector<std::uint8_t> channel_reasons = {});
};

}  // namespace medsen::cloud
