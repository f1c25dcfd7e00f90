#pragma once
// Protocol messages exchanged between the MedSen controller, the phone
// relay, and the cloud server. Payloads are opaque to the phone (it only
// relays); message envelopes carry an HMAC-SHA256 tag keyed by a
// per-device transport key so the untrusted relay cannot tamper
// undetected. (Confidentiality needs no transport cipher: the signal is
// already encrypted in the analog domain.)
//
// The cloud is multi-tenant: every envelope names the sending device
// (`device_id`, covered by the MAC) and the server resolves the MAC key
// from its device registry. Server-side failures travel back as kError
// envelopes carrying a structured ErrorPayload — never as exceptions.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "util/time_series.h"

namespace medsen::net {

enum class MessageType : std::uint8_t {
  kSignalUpload = 1,   ///< sensor -> cloud: encrypted acquisition
  kAnalysisResult = 2, ///< cloud -> sensor: serialized PeakReport
  kAuthDecision = 3,   ///< cloud -> sensor: authentication outcome
  kProgress = 4,       ///< cloud/phone -> app UI
  kError = 5,          ///< cloud -> sensor: structured ErrorPayload
  kAuthPass = 6,       ///< sensor -> cloud: plaintext pass (AuthPassPayload)
  kAuthChallenge = 7,  ///< sensor -> cloud: EV2 handshake opener
  kAuthResponse = 8,   ///< cloud -> sensor: handshake nonce + key proof
};

struct Envelope {
  MessageType type = MessageType::kError;
  std::uint64_t session_id = 0;
  std::uint64_t device_id = 0;  ///< sending/addressed device, MAC-covered
  /// Monotonic command counter, MAC-covered. 0 marks the legacy
  /// static-key plane (and the handshake itself); session-keyed
  /// commands count from 1 and the server validates them against a
  /// sliding anti-replay window (see cloud::SessionAuthTable).
  std::uint32_t counter = 0;
  std::vector<std::uint8_t> payload;
  crypto::Sha256Digest mac{};  ///< HMAC over type|session|device|ctr|payload

  /// Serialize (without framing; see net/frame.h).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static Envelope deserialize(std::span<const std::uint8_t> bytes);
};

/// Build an authenticated envelope. `counter` stays 0 on the legacy
/// static-key plane; session-keyed traffic stamps the device's next
/// command counter.
Envelope make_envelope(MessageType type, std::uint64_t session_id,
                       std::uint64_t device_id,
                       std::vector<std::uint8_t> payload,
                       std::span<const std::uint8_t> mac_key,
                       std::uint32_t counter = 0);

/// Verify the envelope's MAC.
bool verify_envelope(const Envelope& envelope,
                     std::span<const std::uint8_t> mac_key);

/// SignalUpload payload: the acquisition, either as serialize_series()
/// bytes or, when `compressed`, as a packed series
/// (deserialize_packed_series()).
struct SignalUploadPayload {
  bool compressed = false;
  double sample_rate_hz = 450.0;
  std::vector<std::uint8_t> data;  ///< serialized or packed series

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static SignalUploadPayload deserialize(std::span<const std::uint8_t> bytes);
};

/// AuthPass payload: a plaintext (encryption-off) acquisition plus the
/// side-channel parameters the verifier needs. `volume_ul` and
/// `duration_s` used to be announced as bare function arguments; carrying
/// them inside the MAC'd envelope means a tampering relay cannot skew the
/// census concentration or the dead-time correction undetected.
struct AuthPassPayload {
  SignalUploadPayload upload;
  double volume_ul = 0.0;
  double duration_s = 0.0;  ///< 0 disables the dead-time correction

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static AuthPassPayload deserialize(std::span<const std::uint8_t> bytes);
};

/// AuthChallenge payload (sensor -> cloud, opens the EV2-style
/// handshake): the device's fresh 16-byte nonce plus the master-key
/// epoch its diversified key was personalized under, so the server
/// derives with the matching master during a rotation grace window.
/// The envelope carrying it is MAC'd with the device's *long-term*
/// key and counter 0; everything after the handshake runs on derived
/// session keys.
struct AuthChallengePayload {
  static constexpr std::size_t kNonceSize = 16;
  std::uint32_t key_epoch = 0;
  std::array<std::uint8_t, kNonceSize> challenge{};  ///< RndA

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static AuthChallengePayload deserialize(std::span<const std::uint8_t> bytes);
};

/// AuthResponse payload (cloud -> sensor, closes the handshake): the
/// server's 16-byte nonce and CMAC(device_key, RndB || RndA) — proof the
/// server actually holds (or can derive) the device key. The device
/// verifies the proof in constant time before deriving session keys.
struct AuthResponsePayload {
  static constexpr std::size_t kNonceSize = 16;
  std::array<std::uint8_t, kNonceSize> challenge{};  ///< RndB
  std::array<std::uint8_t, 16> proof{};

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static AuthResponsePayload deserialize(std::span<const std::uint8_t> bytes);
};

/// Binary serialization of a multi-channel acquisition.
std::vector<std::uint8_t> serialize_series(
    const util::MultiChannelSeries& series);
util::MultiChannelSeries deserialize_series(
    std::span<const std::uint8_t> bytes);
/// serialize_series(series).size(), without building the bytes.
std::size_t serialized_series_size(const util::MultiChannelSeries& series);

/// The relay's compressed upload (MSP1 in docs/PROTOCOL.md): each
/// channel's samples as eight byte planes, byte k of every IEEE-754 bit
/// pattern in plane k. Planes whose order-0 entropy is under 7 bits/byte
/// (sign, exponent, high mantissa) go through one compress::compress()
/// call; the sensor-noise planes travel raw. Lossless.
std::vector<std::uint8_t> pack_series(const util::MultiChannelSeries& series);

/// Strict decoder for a packed series: MSP1, or one MSZ1 container
/// holding serialize_series() bytes (what relays sent before byte
/// planes). Throws std::runtime_error on any other magic, a coded block
/// of the wrong size or trailing bytes, and std::out_of_range on a short
/// raw plane. Samples are allocated only once the bytes behind them are
/// present or decoded.
util::MultiChannelSeries deserialize_packed_series(
    std::span<const std::uint8_t> bytes);

/// AuthDecision payload.
struct AuthDecisionPayload {
  bool authenticated = false;
  std::string user_id;
  double distance = 0.0;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static AuthDecisionPayload deserialize(std::span<const std::uint8_t> bytes);
};

/// Machine-readable quality-failure category. The numeric values travel
/// on the wire (the ErrorPayload subcode carries the worst reason, and
/// the per-channel vector carries `1u << reason` bitmasks), so they are
/// part of the protocol. Lower
/// nonzero values are more severe: a saturated channel says more about
/// the hardware than a drifting one, and the highest-severity failure is
/// the one reported as the summary `subcode`.
enum class QualityReason : std::uint8_t {
  kNone = 0,          ///< acceptable
  kNoChannels = 1,    ///< acquisition carries no channels at all
  kEmptyChannel = 2,  ///< a channel has zero samples
  kSaturated = 3,     ///< implausible/clipped samples
  kDropout = 4,       ///< pinned (stuck-ADC) samples
  kNoiseFloor = 5,    ///< broadband noise above threshold
  kDrift = 6,         ///< baseline wander out of range
};

[[nodiscard]] const char* to_string(QualityReason reason);

/// True when `a` outranks `b` in severity (kNone never outranks).
[[nodiscard]] bool more_severe(QualityReason a, QualityReason b);

/// Why the server refused a request (kError envelopes).
enum class ErrorCode : std::uint8_t {
  kBadMac = 1,           ///< envelope MAC verification failed
  kQualityRejected = 2,  ///< acquisition failed the quality gate
  kUnknownDevice = 3,    ///< device_id not in the registry
  kOverloaded = 4,       ///< admission gate shed the request
  kMalformed = 5,        ///< undecodable payload / unroutable type
  kSessionConflict = 6,  ///< session_id replayed with different bytes
  kStaleCounter = 7,     ///< command counter outside the anti-replay window
  kAuthRequired = 8,     ///< no session for this (device, session_id)
  kRevoked = 9,          ///< device on the revocation list
  kBadEpoch = 10,        ///< handshake named a retired/unknown key epoch
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// Error payload: the machine-readable reason a request was refused.
/// `subcode` refines kQualityRejected with a QualityReason value (0
/// otherwise); `detail` is a human-readable elaboration.
///
/// `channel_reasons[c]` is a failure bitmask for carrier channel c: bit
/// `1u << r` is set for every QualityReason r that channel failed (0 for
/// a clean channel); the vector is empty for non-quality errors. The
/// full bitmask matters — a channel whose most severe failure is
/// saturation may simultaneously carry the systemic drift of a bubble,
/// and recovery planning must see both to blame the right component.
/// Carrier channels are anonymous to the relay and the cloud — only the
/// controller, holding the secret key schedule, can map them back to
/// physical electrodes, so publishing the vector leaks nothing about
/// E(t).
struct ErrorPayload {
  ErrorCode code = ErrorCode::kMalformed;
  std::uint8_t subcode = 0;
  std::string detail;
  std::vector<std::uint8_t> channel_reasons;  ///< failure bits per channel

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static ErrorPayload deserialize(std::span<const std::uint8_t> bytes);
};

}  // namespace medsen::net
