#pragma once
// The smartphone relay: the Android app of the prototype. It is NOT in
// the trusted computing base — it only (a) relays envelopes between the
// USB-attached controller and the cloud, (b) compresses bulk uploads to
// save data-plan bytes (net::pack_series), (c) reports progress to the
// user, and (d) can run the peak analysis locally for small samples
// (paper Fig. 14 discussion).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloud/server.h"
#include "core/controller.h"
#include "core/recovery.h"
#include "net/link.h"
#include "net/messages.h"
#include "net/reliable.h"
#include "phone/profile.h"
#include "sim/acquisition.h"

namespace medsen::phone {

/// Timing breakdown of one relayed round trip (simulated link times plus
/// measured compute times).
struct RelayTiming {
  double usb_in_s = 0.0;       ///< controller -> phone
  double compression_s = 0.0;  ///< pack_series, phone-profile scaled
  double uplink_s = 0.0;       ///< phone -> cloud (incl. retransmissions)
  double analysis_s = 0.0;     ///< cloud compute (measured)
  double downlink_s = 0.0;     ///< cloud -> phone (incl. retransmissions)
  double usb_out_s = 0.0;      ///< phone -> controller

  // Reliable-transport counters (zero on the idealized direct path).
  std::size_t retransmissions = 0;  ///< chunk re-sends across both legs
  std::size_t timeouts = 0;         ///< expired ACK waits across both legs
  bool local_fallback = false;      ///< retry budget spent; analyzed on phone

  [[nodiscard]] double total_s() const {
    return usb_in_s + compression_s + uplink_s + analysis_s + downlink_s +
           usb_out_s;
  }
};

struct RelayConfig {
  /// Tenant identity stamped on every envelope; the server only accepts
  /// devices enrolled in its cloud::DeviceRegistry under this id.
  std::uint64_t device_id = 1;
  /// Pack uploads of at least 4 KiB (net::pack_series); false sends
  /// every upload raw.
  bool compress_uploads = true;
  ExecutionProfile profile = nexus5_profile();
  net::LinkModel usb = net::usb_accessory();
  net::LinkModel uplink = net::lte_uplink();
  net::LinkModel downlink = net::lte_downlink();
  /// When true, uploads travel over seeded lossy links through
  /// net::ReliableChannel (chunked ARQ with backoff) instead of the
  /// idealized direct call; exhausting the retry budget degrades to
  /// on-phone analysis instead of failing the session.
  bool reliable_transport = false;
  net::FaultConfig uplink_faults;
  net::FaultConfig downlink_faults;
  net::ReliableConfig reliable;
};

using ProgressCallback = std::function<void(const std::string&)>;

/// Outcome and counters of one self-healing diagnostic session (the
/// RelayTiming-style bookkeeping for the retry loop).
struct SessionOutcome {
  core::Diagnosis diagnosis;
  std::size_t attempts = 0;            ///< acquisitions performed
  std::size_t quality_rejections = 0;  ///< structured quality errors seen
  bool recovered = false;   ///< succeeded after at least one rejection
  bool degraded = false;    ///< retry budget exhausted, best-effort result
  /// The controller's recovery action after each failed attempt (ends
  /// with kGiveUp when the session degraded).
  std::vector<core::RecoveryAction> actions;
  std::size_t retransmissions = 0;  ///< summed across all attempts
  std::size_t timeouts = 0;         ///< summed across all attempts
  net::Envelope last_response;      ///< final analysis (or local) envelope
};

/// How the relay asks the sensor for an acquisition attempt: given the
/// control trace of the (re-keyed) schedule, the session duration and
/// the 0-based attempt index, return the lock-in output. Tests and
/// benches back this with sim::acquire(); `attempt` feeds
/// sim::FaultConfig::attempt so transient faults can clear on retry.
using AcquireFn = std::function<util::MultiChannelSeries(
    std::span<const sim::ControlSegment> control, double duration_s,
    std::size_t attempt)>;

class PhoneRelay {
 public:
  explicit PhoneRelay(RelayConfig config = {});

  /// Run the controller's AuthChallenge/AuthResponse handshake against
  /// the cloud (over the reliable links when configured) and leave its
  /// SessionCrypto holding derived session keys. Returns false — with
  /// no session active — when the controller has no session crypto
  /// armed, the exchange could not be delivered, or the server's
  /// key-possession proof failed verification.
  bool establish_session(core::Controller& controller,
                         std::uint64_t session_id,
                         cloud::CloudServer& server);

  /// Relay an encrypted acquisition to the cloud for analysis and return
  /// the cloud's analysis-result envelope. Populates timing().
  /// With an *active* `crypto`, the envelope rides the session plane:
  /// MAC'd with the derived session key, stamped with the next command
  /// counter, and addressed to the negotiated session id (the
  /// `session_id` argument is ignored then).
  net::Envelope relay_analysis(const util::MultiChannelSeries& series,
                               std::uint64_t session_id,
                               cloud::CloudServer& server,
                               std::span<const std::uint8_t> mac_key,
                               core::SessionCrypto* crypto = nullptr);

  /// Relay a plaintext auth pass; returns the auth-decision envelope.
  /// `duration_s` (when nonzero) lets the server correct coincidence
  /// losses in the bead census. `crypto` works as in relay_analysis().
  net::Envelope relay_auth(const util::MultiChannelSeries& series,
                           std::uint64_t session_id, double volume_ul,
                           cloud::CloudServer& server,
                           std::span<const std::uint8_t> mac_key,
                           double duration_s = 0.0,
                           core::SessionCrypto* crypto = nullptr);

  /// Run the peak analysis locally on the phone (small-sample mode).
  /// Returns the report and records the profile-scaled analysis time.
  core::PeakReport analyze_locally(const util::MultiChannelSeries& series,
                                   const cloud::AnalysisConfig& config);

  /// Drive one complete self-healing diagnostic session end to end:
  /// acquire under the controller's control trace, upload, and on a
  /// structured quality rejection let the controller plan recovery
  /// (re-key with suspects masked, derate flow, flush) and re-acquire,
  /// up to RetryPolicy::max_attempts. Distinct attempts use session ids
  /// `session_base_id + attempt` so the server's idempotency cache never
  /// conflates them. When the budget is exhausted the session degrades
  /// to an on-phone best-effort analysis with the policy's confidence
  /// downgrade — it does not throw.
  ///
  /// When the controller has session crypto armed, the loop handshakes
  /// once up front and every attempt rides the *same* negotiated
  /// session with incrementing command counters (the cache keys on the
  /// counter, so attempts never conflate). A kAuthRequired error —
  /// the server lost the session to a restart or key rotation —
  /// triggers one re-handshake under a fresh session id and a resend,
  /// with counters restarting under the new key. A handshake that
  /// cannot complete at all degrades to the legacy static-key plane.
  SessionOutcome run_diagnostic_session(
      core::Controller& controller, double duration_s,
      const AcquireFn& acquire, std::uint64_t session_base_id,
      cloud::CloudServer& server, std::span<const std::uint8_t> mac_key);

  void set_progress_callback(ProgressCallback cb) { progress_ = std::move(cb); }

  [[nodiscard]] const RelayTiming& timing() const { return timing_; }
  [[nodiscard]] const RelayConfig& config() const { return config_; }
  /// Bytes sent over the uplink by the last relay (after compression).
  [[nodiscard]] std::size_t last_upload_bytes() const {
    return last_upload_bytes_;
  }

 private:
  /// Serialize the acquisition, or pack it (net::pack_series) when it
  /// reaches the compression threshold; resets and fills the
  /// USB/compression timing fields.
  net::SignalUploadPayload build_payload(
      const util::MultiChannelSeries& series);
  /// The exchange relay_analysis() and relay_auth() share: stamp the
  /// session plane when `crypto` is active (overwriting `session_id` and
  /// `mac_key`), send one `type` envelope over the reliable or the
  /// direct link, and fill the link, analysis and USB timing fields.
  /// Returns nullopt when the retry budget ran out in either direction.
  std::optional<net::Envelope> exchange(
      net::MessageType type, std::vector<std::uint8_t> payload,
      const std::string& uploading, std::uint64_t& session_id,
      std::span<const std::uint8_t>& mac_key, core::SessionCrypto* crypto,
      cloud::CloudServer& server);
  /// Run one request/response exchange over the lossy reliable links.
  /// Returns the response envelope, or nullopt when the retry budget was
  /// exhausted in either direction; fills the transport timing fields.
  std::optional<net::Envelope> reliable_exchange(
      const net::Envelope& upload,
      const std::function<net::Envelope(const net::Envelope&)>& handler);
  /// Measure a profile-scaled local analysis without resetting timing_.
  core::PeakReport run_local_analysis(const util::MultiChannelSeries& series,
                                      const cloud::AnalysisConfig& config);
  void report(const std::string& message);

  RelayConfig config_;
  RelayTiming timing_;
  ProgressCallback progress_;
  std::size_t last_upload_bytes_ = 0;
};

}  // namespace medsen::phone
