#pragma once
// core::SessionCrypto: the controller's half of the EV2-style session
// plane. It holds the device's long-term (diversified) transport key,
// runs the AuthChallenge/AuthResponse handshake against the cloud, and
// afterwards stamps every envelope with the derived session MAC key and
// a monotonic command counter:
//
//   device                               cloud
//     | -- AuthChallenge(epoch, RndA) ---> |   (MAC: long-term key, ctr 0)
//     | <-- AuthResponse(RndB, proof) ---- |   (MAC: long-term key, ctr 0)
//     |  verify proof == CMAC(K, RndB||RndA)  [constant time]
//     |  K_ses = KDF(K, "medsen-ses-mac", RndA||RndB)
//     | -- command, ctr=1, MAC: K_ses ---> |
//     | -- command, ctr=2, MAC: K_ses ---> |  ...
//
// RndA comes from the controller's deterministic ChaCha stream (seeded
// from the session-crypto lane of the entropy seed, so enabling the
// session plane never perturbs the acquisition RNG and golden traces
// stay bit-identical). Counters only ever move forward — a re-handshake
// resets them, which is safe because it also replaces the key.

#include <cstdint>
#include <vector>

#include "crypto/chacha20.h"
#include "net/messages.h"
#include "util/secret_bytes.h"

namespace medsen::core {

class SessionCrypto {
 public:
  /// `device_key` is the long-term transport key burned in at
  /// personalization: crypto::diversify_device_key(master, id,
  /// key_epoch), 16 bytes. `key_epoch` names the master-key epoch it was
  /// derived under. `entropy_seed` feeds the challenge RNG — same seed, same
  /// handshake, by design.
  SessionCrypto(std::uint64_t device_id, std::vector<std::uint8_t> device_key,
                std::uint32_t key_epoch, std::uint64_t entropy_seed);

  /// Open a handshake: a fresh RndA inside an AuthChallenge envelope
  /// MAC'd with the long-term key (counter 0). Invalidates any active
  /// session — commands race a re-key at their peril.
  net::Envelope make_challenge(std::uint64_t session_id);

  /// Close the handshake with the server's AuthResponse envelope.
  /// Verifies the envelope MAC (long-term key) and the key-possession
  /// proof in constant time, then derives the session MAC key. Returns
  /// false — leaving no session active — on any mismatch.
  bool complete(const net::Envelope& response);

  /// Whether a session is established (complete() succeeded).
  [[nodiscard]] bool active() const { return !session_mac_key_.empty(); }
  /// The session id given to make_challenge() (valid while active).
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  /// Next command counter (first command after a handshake is 1).
  [[nodiscard]] std::uint32_t next_counter() { return ++counter_; }
  /// The counter most recently handed out (0 right after a handshake).
  [[nodiscard]] std::uint32_t last_counter() const { return counter_; }

  [[nodiscard]] const util::SecretBytes& session_mac_key() const {
    return session_mac_key_;
  }
  [[nodiscard]] const util::SecretBytes& device_key() const {
    return device_key_;
  }
  [[nodiscard]] std::uint64_t device_id() const { return device_id_; }
  [[nodiscard]] std::uint32_t key_epoch() const { return key_epoch_; }

  /// Drop the session (server said kAuthRequired, or the caller is
  /// re-keying). The next make_challenge() starts fresh.
  void invalidate();

 private:
  std::uint64_t device_id_;
  util::SecretBytes device_key_;
  std::uint32_t key_epoch_;
  crypto::ChaChaRng rng_;
  std::uint64_t session_id_ = 0;
  /// RndA is key-input material mid-handshake; SecretBytes wipes it on
  /// replacement and on teardown just like the keys proper.
  util::SecretBytes pending_rnd_a_;
  util::SecretBytes session_mac_key_;
  std::uint32_t counter_ = 0;
};

}  // namespace medsen::core
