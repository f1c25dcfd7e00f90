#pragma once
// The cloud's service plumbing, independent of what the handlers do:
//
//  - DeviceRegistry: the one per-device table. Each shard holds the
//    records of the devices that route to it (enrollment, revocation,
//    the live session's MAC key and anti-replay window), that shard's
//    cache of exchanges, and its service counters. A request takes its
//    device's shard lock in short sections (resolve, reserve, complete)
//    and never across MAC verification or a handler, so requests for
//    different devices never contend and each (device, session,
//    counter) is processed at most once. A completed exchange is cached
//    as one allocation sized to its payload, holding only what a replay
//    needs; requests still in flight are kept apart, as key and request
//    MAC. A cached session-plane exchange lives only while a request can
//    still reach it: while its session is live and its counter is inside
//    the anti-replay window.
//  - AdmissionGate: a bounded in-flight counter, lock-free. Past the
//    limit the server sheds requests with an `overloaded` error instead
//    of queueing unboundedly on the shared analysis pool.
//  - ServiceResult: a handler's outcome as data. Failures are values
//    that become kError envelopes at the boundary; exceptions are
//    reserved for programmer errors.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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

/// Aggregate service counters (all monotonic), kept per registry shard
/// and summed by DeviceRegistry::stats().
struct ServiceStats {
  std::uint64_t requests_processed = 0;  ///< cache-miss successes
  std::uint64_t replays_served = 0;      ///< idempotent cache hits
  std::uint64_t errors_returned = 0;     ///< kError responses sent
  std::uint64_t requests_shed = 0;       ///< refused by the admission gate
  std::uint64_t handshakes_completed = 0;  ///< sessions established
  std::uint64_t counter_rejections = 0;  ///< stale/replayed command counters
};

/// What a request learns about its device in the resolve section.
struct DeviceStatus {
  bool enrolled = false;  ///< enrolled and not revoked
  bool revoked = false;
  /// The live session's MAC key, when the request names that session.
  std::optional<util::SecretBytes> session_key;
};

/// Outcome of reserving a request's (device, session, counter) slot.
enum class SlotState : std::uint8_t {
  kReserved,  ///< fresh: the caller owns a pending slot until
              ///< complete() or release()
  kReplay,    ///< byte-identical replay of a completed exchange
  kInFlight,  ///< byte-identical copy of a pending exchange: retry later
  kConflict,  ///< the slot holds a request with a different MAC
  kStale,     ///< session-plane counter already seen, below the window,
              ///< or its session is gone
};

struct Reservation {
  SlotState state = SlotState::kReserved;
  net::Envelope response;  ///< the cached response (kReplay only)
};

/// Thread-safe, sharded per-device table.
///
/// Keys: one 16-byte *master key per epoch*; a device's long-term key is
/// derived on demand as crypto::diversify_device_key(master[epoch], id,
/// epoch), so a million-device fleet holds zero per-device long-term
/// secrets and rotating the master (a new epoch) re-keys the whole fleet
/// in one operation. Revoked devices resolve to nothing until
/// re-enrolled.
///
/// Sessions: after an AuthChallenge/AuthResponse handshake a device has
/// one live session: its id, the negotiated MAC key and a DTLS/IPsec
/// style anti-replay window over the command counter (`highest` is the
/// largest committed counter, bit i of `window` marks `highest - i` as
/// seen). A counter above `highest` is fresh; one inside the window is
/// fresh exactly once; anything at or below `highest - 64` is stale. A
/// new handshake replaces key, counter and window.
///
/// Exchanges: every request reserves its (device, session, counter) slot
/// before its handler runs. The reservation is a *pending* slot carrying
/// the request MAC, made in the same section as the cache lookup and the
/// counter check, so a second copy of the request finds it: a different
/// MAC is a conflict, the same MAC is in flight (or, once the slot is
/// filled, a replay served from it). complete() fills the slot and burns
/// the counter; release() frees it, so a failed command keeps its
/// counter. Filled slots are completed exchanges in a per-shard LRU
/// bounded at capacity / shards (at least 1; 0 = unbounded), touched on
/// completion and on every replay; pending slots are kept apart and
/// neither count against the bound nor get evicted. An evicted
/// legacy-plane exchange is simply processed again; an evicted
/// session-plane one is refused by the window.
///
/// A completed exchange stores its key, the request MAC, and the
/// response's type, MAC and payload, in one allocation sized to the
/// payload. The response's session, device and counter are not stored:
/// they are its request's, as CloudServer::handle() builds every
/// response, and complete() refuses a response that differs.
///
/// Invariant: a filled session-plane slot (counter >= 1) exists only
/// while its session is the device's live session and its counter is
/// inside that session's window (at most kWindowSize per session).
/// Outside that, resolve() or the window refuses every request that
/// could name the slot, so it is retired at once rather than left to the
/// LRU: complete() drops the counters its burn slides out of the window,
/// a re-key or revoke() drops the old session's window, drop_sessions()
/// and restore() drop every session-plane slot, and a completion whose
/// session died or whose counter left the window while it ran releases
/// its slot instead of filling it. Retirements are not evictions.
/// Counter-0 slots (handshakes, the legacy plane) stay under the LRU
/// alone: retiring a handshake's slot would let a replayed AuthChallenge
/// re-key the device.
///
/// Routing is deterministic (util::Sharded FNV-1a): the same device
/// always lands on the same shard for a given shard count.
class DeviceRegistry {
 public:
  static constexpr std::uint32_t kWindowSize = 64;

  /// `shards` 0 = hardware default; rounded up to a power of two.
  /// `cache_capacity` bounds the cached exchanges across all shards.
  explicit DeviceRegistry(std::size_t shards = 0,
                          std::size_t cache_capacity = 1u << 16);

  // --- Enrollment and long-term keys ------------------------------------

  /// Remove a device from the enrollment set, put it on the revocation
  /// list and drop its live session; returns false when it was not
  /// enrolled.
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
  /// The key under `key_epoch` (the current epoch when nullopt) without
  /// consulting enrollment, for a caller that already resolved the
  /// device; nullopt when that epoch's master is gone.
  [[nodiscard]] std::optional<util::SecretBytes> derive_key(
      std::uint64_t device_id,
      std::optional<std::uint32_t> key_epoch = std::nullopt) const;

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

  /// Deterministic dump / restore of enrollment and keying state for
  /// persistence. restore() replaces every device record (sessions and
  /// their cached exchanges included); cached exchanges and counters are
  /// not persisted.
  [[nodiscard]] RegistrySnapshot snapshot() const;
  void restore(const RegistrySnapshot& snapshot);

  // --- Sessions ----------------------------------------------------------

  /// The session MAC key, if `session_id` is the device's live session.
  [[nodiscard]] std::optional<util::SecretBytes> session_key(
      std::uint64_t device_id, std::uint64_t session_id) const;
  /// Tear down every session and its cached exchanges (master-key
  /// rotation re-keys the fleet). Later session-plane envelopes get
  /// kAuthRequired until a new handshake.
  void drop_sessions();
  [[nodiscard]] std::size_t active_sessions() const;

  // --- The request path (CloudServer::handle) ---------------------------

  /// Section 1: revocation, enrollment and the named session's key.
  [[nodiscard]] DeviceStatus resolve(std::uint64_t device_id,
                                     std::uint64_t session_id) const;
  /// Section 2, once the MAC verified: cache lookup, counter check (on
  /// the session plane) and the pending slot, in one critical section.
  /// Counts replays and the refusals it returns.
  [[nodiscard]] Reservation reserve(const net::Envelope& request,
                                    bool session_plane);
  /// Section 3 on success: fill the pending slot with `response` (if
  /// there is one), burn the counter (session plane) or install
  /// `new_session` (a handshake's key, replacing the device's session
  /// and resetting its window; installed only while the device is still
  /// enrolled), and count the request as processed. A session-plane
  /// slot whose session is no longer live, or whose counter left the
  /// window meanwhile, is freed instead of filled. `response` must carry
  /// the request's device, session and counter (std::invalid_argument
  /// otherwise): a replay rebuilds them from the slot's key.
  void complete(const net::Envelope& request, const net::Envelope& response,
                bool session_plane,
                std::optional<util::SecretBytes> new_session = std::nullopt);
  /// Section 3 on failure: free the slot and count the error.
  void release(const net::Envelope& request);
  /// Count an error decided outside reserve()/release() (and a shed).
  void count_error(std::uint64_t device_id, bool shed = false);

  // --- Observation ---------------------------------------------------------

  /// Aggregated per shard on read: eventually consistent while requests
  /// are in flight, exact once they drain.
  [[nodiscard]] ServiceStats stats() const;
  /// Cached exchanges, pending ones included, and LRU evictions.
  [[nodiscard]] std::size_t cache_size() const;
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] std::size_t per_shard_capacity() const {
    return per_shard_capacity_;
  }

  [[nodiscard]] std::size_t shard_count() const {
    return shards_.shard_count();
  }
  /// Which shard a device routes to (deterministic; exposed for tests
  /// and for operators debugging shard balance).
  [[nodiscard]] std::size_t shard_of(std::uint64_t device_id) const {
    return shards_.shard_index(device_id);
  }

 private:
  struct Session {
    std::uint64_t id = 0;
    util::SecretBytes mac_key;
    std::uint32_t highest = 0;  ///< largest committed counter
    std::uint64_t window = 0;   ///< seen-bitmap below `highest`

    [[nodiscard]] bool in_window(std::uint32_t counter) const {
      return counter > highest || highest - counter < kWindowSize;
    }
    [[nodiscard]] bool fresh(std::uint32_t counter) const;
    /// Mark `counter` seen; returns the window bits the burn slid out
    /// (bit i is the counter that was `highest - i` before it).
    std::uint64_t burn(std::uint32_t counter);
  };
  struct DeviceRecord {
    bool enrolled = false;
    bool revoked = false;
    /// Allocated only while the device has a live session, so an
    /// enrolled fleet's records stay small.
    std::unique_ptr<Session> session;

    [[nodiscard]] bool live(std::uint64_t session_id) const {
      return session != nullptr && session->id == session_id;
    }
  };

  /// (device, session, counter): the session plane keeps one session id
  /// across the retry ladder and tells attempts apart by counter, so
  /// each counter is its own slot; counter-0 traffic is one slot per
  /// (device, session).
  struct SlotKey {
    std::uint64_t device_id = 0;
    std::uint64_t session_id = 0;
    std::uint32_t counter = 0;

    static SlotKey of(const net::Envelope& envelope) {
      return {envelope.device_id, envelope.session_id, envelope.counter};
    }
    friend bool operator==(const SlotKey&, const SlotKey&) = default;
  };
  /// A request in flight on its slot, until complete() or release().
  struct Pending {
    SlotKey key;
    crypto::Sha256Digest request_mac{};
  };
  /// One completed exchange: a header and the response payload in one
  /// allocation (defined in dispatch.cpp).
  struct Record;
  struct RecordDeleter {
    void operator()(Record* record) const;
  };
  using RecordPtr = std::unique_ptr<Record, RecordDeleter>;

  /// A shard's completed exchanges, which it owns. The records form an
  /// intrusive recency list (two pointers in each record, newest first)
  /// and are found through an open-addressing index of record pointers:
  /// linear probing, at most half full, backward-shift deletion.
  class ExchangeTable {
   public:
    ExchangeTable() = default;
    ExchangeTable(const ExchangeTable&) = delete;
    ExchangeTable& operator=(const ExchangeTable&) = delete;
    ~ExchangeTable();

    [[nodiscard]] Record* find(const SlotKey& key) const;
    /// Add a record whose key is absent, as the most recently touched.
    void insert(RecordPtr record);
    /// Make `record` the most recently touched.
    void touch(Record* record);
    /// Unlink, unindex and free `record`.
    void erase(Record* record);
    [[nodiscard]] Record* newest() const { return newest_; }
    [[nodiscard]] Record* oldest() const { return oldest_; }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    /// The slot a key's probe run starts from.
    static std::size_t home(const SlotKey& key, std::size_t mask);
    void unlink(Record* record);
    void link_front(Record* record);
    /// Place `record` in the first free slot from its home slot.
    void place(Record* record);

    Record* newest_ = nullptr;
    Record* oldest_ = nullptr;
    std::vector<Record*> index_;  ///< power-of-two slots; null is free
    std::size_t size_ = 0;
  };

  struct Shard {
    std::unordered_map<std::uint64_t, DeviceRecord> devices;
    ExchangeTable exchanges;  ///< filled slots (the LRU bound)
    /// Pending slots: at most the requests in flight on this shard, so a
    /// short vector, scanned in place, allocates once and then reuses.
    std::vector<Pending> pending;
    ServiceStats counts;
    std::uint64_t evictions = 0;
  };
  /// Fleet-wide keying state: tiny and rarely written, so it lives in a
  /// single-shard Sharded (routed with key 0) rather than a bare mutex.
  struct MasterState {
    std::unordered_map<std::uint32_t, util::SecretBytes> by_epoch;
    std::uint32_t current_epoch = 0;
  };

  /// The device's record in its shard, or null.
  template <typename ShardT>
  static auto* find(ShardT& shard, std::uint64_t device_id) {
    const auto it = shard.devices.find(device_id);
    return it == shard.devices.end() ? nullptr : &it->second;
  }
  /// The shard's pending slot for `key`, or null.
  static Pending* find_pending(Shard& shard, const SlotKey& key);
  /// Free the pending slot for `key`; false when there is none.
  static bool drop_pending(Shard& shard, const SlotKey& key);
  /// Evict the least recently touched exchanges until one more fits
  /// under the per-shard bound.
  void evict(Shard& shard) const;
  /// Drop the filled slot of (device, session, top - i) for each set
  /// bit i of `ages`; pending slots stay with their requests.
  static void retire(Shard& shard, std::uint64_t device_id,
                     std::uint64_t session_id, std::uint32_t top,
                     std::uint64_t ages);
  /// Drop every filled session-plane slot of the shard.
  static void retire_sessions(Shard& shard);

  std::size_t per_shard_capacity_;
  util::Sharded<Shard> shards_;
  util::Sharded<MasterState> masters_;
};

/// Bounded admission: at most `max_inflight` requests are inside the
/// service at once (0 = unbounded). Excess requests are shed immediately
/// — the caller turns a failed ticket into an `overloaded` error and
/// counts it (CloudServer::handle: ServiceStats::requests_shed).
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

 private:
  std::size_t limit_;
  /// Every request writes this twice, from every client thread: its own
  /// cache line keeps the read-mostly server fields laid out next to the
  /// gate from being invalidated along with it.
  alignas(64) std::atomic<std::size_t> in_flight_{0};
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
  /// A handshake's negotiated session MAC key, installed when the
  /// exchange completes (nullopt for every other handler).
  std::optional<util::SecretBytes> session_key;

  static ServiceResult success(net::MessageType type,
                               std::vector<std::uint8_t> payload);
  static ServiceResult failure(net::ErrorCode code, std::string detail,
                               std::uint8_t subcode = 0,
                               std::vector<std::uint8_t> channel_reasons = {});
};

}  // namespace medsen::cloud
