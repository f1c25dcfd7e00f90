#include "cloud/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cloud/durability.h"
#include "crypto/cmac.h"
#include "util/secure_zero.h"
#include "util/serialize.h"

namespace medsen::cloud {

CloudServer::CloudServer(AnalysisConfig analysis_config,
                         auth::CytoAlphabet alphabet,
                         auth::ParticleClassifier classifier,
                         auth::VerifierConfig verifier_config,
                         std::shared_ptr<util::ThreadPool> pool,
                         ServiceConfig service)
    : analysis_(analysis_config, std::move(pool)),
      db_(alphabet),
      verifier_(std::move(alphabet), std::move(classifier), verifier_config),
      store_(service.shards),
      devices_(service.shards, service.session_cache_capacity),
      admission_(service.max_inflight),
      quality_gate_(service.quality_gate),
      challenge_seed_(service.challenge_seed),
      allow_legacy_plane_(service.allow_legacy_plane) {}

RecoveryStats CloudServer::attach_durability(DurableState& durable) {
  // The log holds the stored reports; the store keeps their locators.
  store_.attach_log([&durable](const std::string& key,
                               std::uint64_t session_id,
                               const FrameLocator& at) {
    return durable.read_record(key, session_id, at);
  });
  const RecoveryStats stats = durable.recover_into(*this);
  // No earlier boot used this epoch, so no earlier RndB used these
  // ordinals.
  ordinal_epoch_ = durable.boot_epoch();
  next_ordinal_.store((ordinal_epoch_ << 32) | 1, std::memory_order_relaxed);
  durable_ = &durable;  // mutations journal from here on
  return stats;
}

void CloudServer::enroll_device(std::uint64_t device_id) {
  const auto apply = [&] { devices_.enroll(device_id); };
  if (durable_) {
    durable_->log_enroll_device(device_id, apply);
  } else {
    apply();
  }
}

bool CloudServer::revoke_device(std::uint64_t device_id) {
  bool known = false;
  const auto apply = [&] { known = devices_.revoke(device_id); };
  if (durable_) {
    durable_->log_revoke(device_id, apply);
  } else {
    apply();
  }
  return known;
}

void CloudServer::rotate_master_key(std::uint32_t epoch,
                                    std::vector<std::uint8_t> master) {
  const auto apply = [&] {
    devices_.set_master_key(epoch, std::move(master));
    devices_.drop_sessions();
  };
  if (durable_) {
    durable_->log_master_rotated(epoch, master, apply);
  } else {
    apply();
  }
}

bool CloudServer::retire_epoch(std::uint32_t epoch) {
  bool known = false;
  const auto apply = [&] { known = devices_.retire_epoch(epoch); };
  if (durable_) {
    durable_->log_epoch_retired(epoch, apply);
  } else {
    apply();
  }
  return known;
}

void CloudServer::enroll_user(const std::string& user_id,
                              const auth::CytoCode& code) {
  if (!durable_) {
    db_.enroll(user_id, code);
    return;
  }
  // Validate before journaling: a journaled operation must replay
  // cleanly, so an enrollment that would throw never reaches the WAL.
  // The check runs inside the durability gate (not here), so two racing
  // enrollments of one code serialize and the loser is rejected before
  // its record is durable.
  durable_->log_user_enrolled(
      user_id, code, [&] { db_.check_enrollable(user_id, code); },
      [&] { db_.enroll(user_id, code); });
}

void CloudServer::store_result(const auth::CytoCode& code,
                               StoredRecord record) {
  if (!durable_) {
    store_.store(code, std::move(record));
    return;
  }
  const std::string key = code.to_string();
  durable_->log_record(key, record, [&](const FrameLocator& at) {
    store_.index(key, record.session_id, at);
  });
}

util::MultiChannelSeries CloudServer::decode_series(
    const net::SignalUploadPayload& payload) const {
  if (payload.compressed) return net::deserialize_packed_series(payload.data);
  return net::deserialize_series(payload.data);
}

net::Envelope CloudServer::error_response(
    const net::Envelope& request, std::span<const std::uint8_t> mac_key,
    net::ErrorCode code, std::string detail, std::uint8_t subcode,
    std::vector<std::uint8_t> channel_reasons) {
  net::ErrorPayload payload;
  payload.code = code;
  payload.subcode = subcode;
  payload.detail = std::move(detail);
  payload.channel_reasons = std::move(channel_reasons);
  return net::make_envelope(net::MessageType::kError, request.session_id,
                            request.device_id, payload.serialize(), mac_key,
                            request.counter);
}

std::uint64_t CloudServer::requests_processed() const {
  return stats().requests_processed;
}

std::uint64_t CloudServer::replays_served() const {
  return stats().replays_served;
}

CloudServer::ResolvedKey CloudServer::resolve_mac_key(
    const net::Envelope& request) {
  ResolvedKey resolved;
  DeviceStatus device =
      devices_.resolve(request.device_id, request.session_id);
  // Errors to devices the server cannot key are unsigned (empty key):
  // it has no credential to speak for them.
  const auto fail = [&](std::span<const std::uint8_t> key,
                        net::ErrorCode code, std::string detail) {
    resolved.error = error_response(request, key, code, std::move(detail));
    return std::move(resolved);
  };
  const auto longterm = [&] {
    return device.enrolled ? devices_.derive_key(request.device_id)
                           : std::nullopt;
  };
  const auto unknown = [&] {
    return fail({}, net::ErrorCode::kUnknownDevice,
                "device " + std::to_string(request.device_id) +
                    " is not provisioned");
  };
  // Revocation outranks every keying plane: a revoked device gets the
  // explicit kRevoked (unsigned — the server no longer speaks for it).
  if (device.revoked) {
    return fail({}, net::ErrorCode::kRevoked,
                "device " + std::to_string(request.device_id) +
                    " is revoked");
  }

  if (request.type == net::MessageType::kAuthChallenge) {
    // Handshakes verify under the long-term key of the epoch the device
    // was personalized under. The payload is decoded before MAC
    // verification only to learn that epoch; a forgery still dies at
    // the MAC check.
    std::uint32_t epoch = 0;
    try {
      epoch =
          net::AuthChallengePayload::deserialize(request.payload).key_epoch;
    } catch (const std::exception& e) {
      return fail({}, net::ErrorCode::kMalformed, e.what());
    }
    if (!device.enrolled) return unknown();
    resolved.key = devices_.derive_key(request.device_id, epoch);
    if (!resolved.key) {
      // Enrolled, but the named epoch's master is retired/unknown.
      return fail({}, net::ErrorCode::kBadEpoch,
                  "key epoch " + std::to_string(epoch) +
                      " is not derivable");
    }
    return resolved;
  }

  if (request.counter != 0) {
    // Session plane: the envelope claims a negotiated session. Its MAC
    // key is the derived session key — never a registry key.
    resolved.session_plane = true;
    if (!device.session_key) {
      const auto key = longterm();
      return fail(key ? std::span<const std::uint8_t>(*key)
                      : std::span<const std::uint8_t>(),
                  net::ErrorCode::kAuthRequired,
                  "no negotiated session for session_id " +
                      std::to_string(request.session_id));
    }
    resolved.key = std::move(device.session_key);
    return resolved;
  }

  // Counter-0 command plane: MAC'd with the device's long-term key, kept
  // as the incremental-upgrade fallback and closable per deployment.
  if (!allow_legacy_plane_) {
    const auto key = longterm();
    return fail(key ? std::span<const std::uint8_t>(*key)
                    : std::span<const std::uint8_t>(),
                net::ErrorCode::kAuthRequired,
                "legacy static-key plane is disabled; negotiate a session");
  }
  resolved.key = longterm();
  if (!resolved.key) return unknown();
  return resolved;
}

net::Envelope CloudServer::handle(const net::Envelope& request) {
  // The whole request runs shard-local: admission is a lock-free atomic,
  // and everything else routes on request.device_id to one registry
  // shard, whose lock is taken in at most three short sections —
  // resolve, reserve, complete — and never across the MAC check or the
  // handler.
  //
  // 1. Admission: shed instead of queueing unboundedly on the pool. The
  // error is signed with the device key when the sender is known.
  auto ticket = admission_.try_enter();
  if (!ticket.admitted()) {
    const auto key = devices_.lookup(request.device_id);
    devices_.count_error(request.device_id, /*shed=*/true);
    return error_response(
        request, key ? std::span<const std::uint8_t>(*key)
                     : std::span<const std::uint8_t>(),
        net::ErrorCode::kOverloaded, "admission limit reached");
  }

  // 2. Resolve: the MAC key comes from the registry (derived under a
  // master-key epoch) or the device's live session — never from the
  // caller.
  auto resolved = resolve_mac_key(request);
  if (resolved.error.has_value()) {
    devices_.count_error(request.device_id);
    return *std::move(resolved.error);
  }
  const util::SecretBytes& mac_key = *resolved.key;

  // 3. Integrity: a tampering relay is detected here.
  if (!net::verify_envelope(request, mac_key)) {
    devices_.count_error(request.device_id);
    return error_response(request, mac_key, net::ErrorCode::kBadMac,
                          "envelope MAC verification failed");
  }

  // 4. Reserve (device, session, counter) before any handler runs. The
  // reliable transport re-uploads when a response is lost, so a
  // byte-identical copy of a completed exchange is served from its slot;
  // a copy of one still in flight is told to retry, and a different
  // request on a reserved slot is a protocol violation. On the session
  // plane the counter must also be fresh in the device's window: a
  // counter whose cached response was evicted is *not* reprocessed —
  // replaying an old command is indistinguishable from an attack.
  auto reservation = devices_.reserve(request, resolved.session_plane);
  switch (reservation.state) {
    case SlotState::kReserved:
      break;
    case SlotState::kReplay:
      return std::move(reservation.response);
    case SlotState::kInFlight:
      return error_response(request, mac_key, net::ErrorCode::kOverloaded,
                            "request in flight; retry");
    case SlotState::kConflict:
      return error_response(request, mac_key,
                            net::ErrorCode::kSessionConflict,
                            "session " + std::to_string(request.session_id) +
                                " replayed with a different payload");
    case SlotState::kStale:
      return error_response(
          request, mac_key, net::ErrorCode::kStaleCounter,
          "command counter " + std::to_string(request.counter) +
              " is outside the anti-replay window");
  }

  // 5. Route on the message type. Handlers report failures as
  // ServiceResult values; decoder throws on MAC-valid garbage are
  // converted to kMalformed at this boundary.
  ServiceResult result;
  const auto started = std::chrono::steady_clock::now();
  try {
    switch (request.type) {
      case net::MessageType::kSignalUpload:
        result = serve_upload(request);
        break;
      case net::MessageType::kAuthPass:
        result = serve_auth_pass(request);
        break;
      case net::MessageType::kAuthChallenge:
        result = serve_handshake(request, mac_key);
        break;
      default:
        result = ServiceResult::failure(
            net::ErrorCode::kMalformed,
            "no handler for message type " +
                std::to_string(static_cast<unsigned>(request.type)));
    }
  } catch (const std::exception& e) {
    result = ServiceResult::failure(net::ErrorCode::kMalformed, e.what());
  }
  const double processing_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  // 6. Complete: a failure frees the slot, so the command stays
  // retryable with the same counter; a success fills the slot and burns
  // the counter (or installs the handshake's session) in one section.
  if (!result.ok) {
    devices_.release(request);
    return error_response(request, mac_key, result.error,
                          std::move(result.detail), result.error_subcode,
                          std::move(result.error_channel_reasons));
  }
  auto response = net::make_envelope(
      result.response_type, request.session_id, request.device_id,
      std::move(result.response_payload), mac_key, request.counter);
  devices_.complete(request, response, resolved.session_plane,
                    processing_time_s, std::move(result.session_key));
  return response;
}

ServiceResult CloudServer::serve_upload(const net::Envelope& request) {
  const auto payload = net::SignalUploadPayload::deserialize(request.payload);
  const auto series = decode_series(payload);
  if (!quality_gate_)
    return ServiceResult::success(net::MessageType::kAnalysisResult,
                                  analysis_.analyze(series).serialize());
  const GatedAnalysis gated = analysis_.analyze_gated(series);
  if (!gated.quality.acceptable) {
    return ServiceResult::failure(
        net::ErrorCode::kQualityRejected,
        "acquisition rejected (" + gated.quality.reason + ")",
        static_cast<std::uint8_t>(gated.quality.reason_code),
        gated.quality.channel_failure_bytes());
  }
  return ServiceResult::success(net::MessageType::kAnalysisResult,
                                gated.report.serialize());
}

ServiceResult CloudServer::serve_auth_pass(const net::Envelope& request) {
  const auto pass = net::AuthPassPayload::deserialize(request.payload);
  const auto series = decode_series(pass.upload);
  const core::PeakReport report = analysis_.analyze(series);

  // Plaintext pass: amplitudes are unscaled, so decoded peaks can be
  // built directly from the report (unit gain, reference flow).
  std::vector<core::DecodedPeak> peaks;
  const auto& ref = report.nearest_channel(5.0e5);
  peaks.reserve(ref.peaks.size());
  for (const auto& p : ref.peaks) {
    core::DecodedPeak d;
    d.time_s = p.time_s;
    d.width_s = p.width_s;
    d.amplitudes.reserve(report.channels.size());
    for (const auto& ch : report.channels) {
      double amplitude = 0.0;
      double best_dt = 0.03;
      for (const auto& q : ch.peaks) {
        const double dt = std::abs(q.time_s - p.time_s);
        if (dt <= best_dt) {
          best_dt = dt;
          amplitude = q.amplitude;
        }
      }
      d.amplitudes.push_back(amplitude);
    }
    peaks.push_back(std::move(d));
  }

  const auth::AuthResult result = verifier_.authenticate_peaks(
      peaks, pass.volume_ul, db_, pass.duration_s);
  net::AuthDecisionPayload payload;
  payload.authenticated = result.authenticated;
  payload.user_id = result.user_id;
  payload.distance = result.distance;
  return ServiceResult::success(net::MessageType::kAuthDecision,
                                payload.serialize());
}

ServiceResult CloudServer::serve_handshake(const net::Envelope& request,
                                           const util::SecretBytes& mac_key) {
  if (request.counter != 0) {
    return ServiceResult::failure(net::ErrorCode::kMalformed,
                                  "handshake envelopes must use counter 0");
  }
  const auto challenge =
      net::AuthChallengePayload::deserialize(request.payload);

  // RndB: KDF'd from the device key so it is unpredictable to anyone
  // off the key, salted with a server-wide ordinal that no handshake of
  // this boot or any other reuses, and free of OS entropy so the whole
  // exchange replays bit-identically in tests. Like seal_payload, fail
  // closed rather than leave this boot's range.
  const std::uint64_t ordinal =
      next_ordinal_.fetch_add(1, std::memory_order_relaxed);
  if ((ordinal >> 32) != ordinal_epoch_) {
    return ServiceResult::failure(
        net::ErrorCode::kOverloaded,
        "handshake ordinals exhausted for this boot; restart the server");
  }
  util::ByteWriter nonce_context;
  nonce_context.u64(challenge_seed_);
  nonce_context.u64(request.device_id);
  nonce_context.u64(ordinal);
  nonce_context.bytes(challenge.challenge);
  auto normalized = crypto::normalize_cmac_key(mac_key);  // medsen: secret
  const auto rnd_b_bytes = crypto::kdf_cmac(
      normalized, "medsen-chal",
      nonce_context.data(), net::AuthResponsePayload::kNonceSize);
  util::secure_wipe(normalized);

  net::AuthResponsePayload response;
  std::copy(rnd_b_bytes.begin(), rnd_b_bytes.end(),
            response.challenge.begin());
  response.proof = crypto::session_proof(mac_key, challenge.challenge,
                                         response.challenge);

  auto result = ServiceResult::success(net::MessageType::kAuthResponse,
                                       response.serialize());
  result.session_key = util::SecretBytes(crypto::derive_session_mac_key(
      mac_key, challenge.challenge, response.challenge));
  return result;
}

}  // namespace medsen::cloud
