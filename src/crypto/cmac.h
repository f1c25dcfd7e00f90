#pragma once
// AES-CMAC (RFC 4493) and the EV2-style key machinery built on it:
//
//  - aes_cmac():            the raw OMAC1 tag over arbitrary bytes
//  - kdf_cmac():            a counter-mode KDF (NIST SP 800-108 shape,
//                           CMAC-AES128 as the PRF) used for every key
//                           derivation in the session protocol
//  - diversify_device_key():per-device key = KDF(master, device_id ||
//                           epoch). The cloud registry stores one master
//                           key per epoch and derives device keys on
//                           demand, so a million-device fleet holds zero
//                           per-device secrets (NTAG 424 AN10922-style
//                           diversification).
//  - derive_session_mac_key(): per-session envelope-MAC key from the
//                           AuthChallenge/AuthResponse handshake's two
//                           nonces (AuthenticateEV2 session-key shape).
//  - session_proof():       the server's CMAC proof-of-key-possession
//                           returned in AuthResponse, verified by the
//                           device with constant_time_equal before any
//                           session key is derived.
//
// The complementary HKDF-SHA256 (hkdf.h) stays the escrow-path KDF; the
// session plane is deliberately all-AES so its cost model matches the
// smart-card literature the design is borrowed from.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/aes.h"

namespace medsen::crypto {

/// A 128-bit CMAC tag.
using CmacTag = std::array<std::uint8_t, Aes128::kBlockSize>;

/// AES-CMAC (RFC 4493) over `data`. The key must be exactly 16 bytes
/// (throws std::invalid_argument otherwise — key lengths are a
/// provisioning invariant, not attacker-controlled input).
CmacTag aes_cmac(std::span<const std::uint8_t> key,
                 std::span<const std::uint8_t> data);

/// Counter-mode KDF over CMAC-AES128 (NIST SP 800-108 shape): block i is
/// CMAC(key, u8(i) || label || 0x00 || context || u16(8*length)).
/// `length` must be in (0, 255 * 16]; throws std::invalid_argument
/// otherwise.
std::vector<std::uint8_t> kdf_cmac(
    std::span<const std::uint8_t> key,
    const std::string& label, std::span<const std::uint8_t> context,
    std::size_t length);

/// A CMAC-ready 16-byte key from an arbitrary-length key: identity for
/// 16-byte keys, SHA-256-truncate otherwise. Diversified device keys are
/// born 16 bytes and pass through unchanged; keys of other lengths, such
/// as a 32-byte storage key, still yield a CMAC key.
std::vector<std::uint8_t> normalize_cmac_key(
    std::span<const std::uint8_t> key);

/// The per-device long-term key for a master-key epoch:
/// KDF(master, "medsen-div", device_id || epoch), 16 bytes. Computed by
/// the cloud registry on demand and burned into the device at
/// personalization — no per-device secret is ever stored server-side.
std::vector<std::uint8_t> diversify_device_key(
    std::span<const std::uint8_t> master_key,
    std::uint64_t device_id, std::uint32_t key_epoch);

/// The session envelope-MAC key (32 bytes, feeding HMAC-SHA256):
/// KDF(device_key, "medsen-ses-mac", rnd_a || rnd_b). Both sides derive
/// it independently after the handshake; it never travels on the wire.
std::vector<std::uint8_t> derive_session_mac_key(
    std::span<const std::uint8_t> device_key,
    std::span<const std::uint8_t> rnd_a,
    std::span<const std::uint8_t> rnd_b);

/// The AuthResponse proof: CMAC(device_key, rnd_b || rnd_a). Ordering is
/// reversed relative to the session-key context so the proof can never
/// double as key material.
CmacTag session_proof(
    std::span<const std::uint8_t> device_key,
    std::span<const std::uint8_t> rnd_a,
    std::span<const std::uint8_t> rnd_b);

}  // namespace medsen::crypto
