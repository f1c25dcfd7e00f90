#pragma once
// cloud::SessionAuthTable: the server half of the EV2-style session
// plane. After an AuthChallenge/AuthResponse handshake the server holds,
// per device, the negotiated session MAC key and a DTLS/IPsec-style
// anti-replay window over the envelope command counter:
//
//   - `highest` is the largest counter accepted so far;
//   - `window` is a 64-bit bitmap of the counters just below it, bit i
//     marking `highest - i` as seen.
//
// A counter above `highest` is fresh; one inside the window is fresh
// exactly once (retransmissions of in-flight commands from the ARQ layer
// land here); anything at or below `highest - 64`, or a second arrival
// of a window bit, is a replay the caller must reject. Commitment is
// separate from classification so the server only burns a counter once
// the request actually succeeded — an admission-shed or quality-rejected
// command can be retried with the same counter.
//
// One active session per device: a new handshake (re-key) atomically
// replaces key, counter, and window, so envelopes from the superseded
// session fail MAC verification from that point on. Sessions live only
// in memory. State is sharded by device id (util::Sharded) like every
// other hot map in this layer.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/secret_bytes.h"
#include "util/sharded.h"

namespace medsen::cloud {

/// Outcome of classifying an envelope counter against the window.
enum class CounterStatus : std::uint8_t {
  kFresh = 0,      ///< never seen; process and commit on success
  kReplay = 1,     ///< seen before; consult the idempotency cache
  kStale = 2,      ///< below the window floor; unservable, reject
  kNoSession = 3,  ///< no session for this (device, session_id)
};

/// Per-device negotiated session state (one live session per device).
struct DeviceSessionState {
  std::uint64_t session_id = 0;
  util::SecretBytes mac_key;  ///< 32-byte derived MAC key (wiped on
                              ///< replace/drop by SecretBytes)
  std::uint32_t highest = 0;  ///< largest committed counter
  std::uint64_t window = 0;   ///< seen-bitmap below `highest`
};

class SessionAuthTable {
 public:
  static constexpr std::uint32_t kWindowSize = 64;

  explicit SessionAuthTable(std::size_t shard_count = 0)
      : shards_(shard_count) {}

  /// Install (or replace) the device's active session. Counter state
  /// resets: the first command of the new session is counter 1.
  void establish(std::uint64_t device_id, std::uint64_t session_id,
                 std::vector<std::uint8_t> mac_key);

  /// The session MAC key, if `session_id` is the device's live session.
  [[nodiscard]] std::optional<util::SecretBytes> session_key(
      std::uint64_t device_id, std::uint64_t session_id) const;

  /// Classify `counter` against the device's window (no state change).
  [[nodiscard]] CounterStatus classify(std::uint64_t device_id,
                                       std::uint64_t session_id,
                                       std::uint32_t counter) const;

  /// Mark `counter` as seen (call only after the request succeeded and
  /// its response is cached). No-op if the session is gone — a re-key
  /// racing a slow command must not resurrect old state.
  void commit(std::uint64_t device_id, std::uint64_t session_id,
              std::uint32_t counter);

  /// Tear down the device's session (revocation, key rotation).
  /// Subsequent session-plane envelopes get kAuthRequired until a new
  /// handshake.
  void drop(std::uint64_t device_id);

  /// Tear down every session (master-key rotation re-keys the fleet).
  void drop_all();

  /// Live session count across all shards (snapshot).
  [[nodiscard]] std::size_t active_sessions() const;

 private:
  struct Shard {
    std::unordered_map<std::uint64_t, DeviceSessionState> sessions;
  };

  util::Sharded<Shard> shards_;
};

}  // namespace medsen::cloud
