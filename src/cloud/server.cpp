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
      devices_(service.shards),
      admission_(service.max_inflight),
      quality_gate_(service.quality_gate),
      cache_({service.shards, service.session_cache_capacity}),
      sessions_(service.shards),
      counters_(service.shards),
      challenge_seed_(service.challenge_seed),
      allow_legacy_plane_(service.allow_legacy_plane) {}

RecoveryStats CloudServer::attach_durability(DurableState& durable) {
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
    durable_->maybe_compact(*this);
  } else {
    apply();
  }
}

bool CloudServer::revoke_device(std::uint64_t device_id) {
  bool known = false;
  const auto apply = [&] {
    known = devices_.revoke(device_id);
    sessions_.drop(device_id);
  };
  if (durable_) {
    durable_->log_revoke(device_id, apply);
    durable_->maybe_compact(*this);
  } else {
    apply();
  }
  return known;
}

void CloudServer::rotate_master_key(std::uint32_t epoch,
                                    std::vector<std::uint8_t> master) {
  const auto apply = [&] {
    devices_.set_master_key(epoch, std::move(master));
    sessions_.drop_all();
  };
  if (durable_) {
    durable_->log_master_rotated(epoch, master, apply);
    durable_->maybe_compact(*this);
  } else {
    apply();
  }
}

bool CloudServer::retire_epoch(std::uint32_t epoch) {
  bool known = false;
  const auto apply = [&] { known = devices_.retire_epoch(epoch); };
  if (durable_) {
    durable_->log_epoch_retired(epoch, apply);
    durable_->maybe_compact(*this);
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
  durable_->maybe_compact(*this);
}

void CloudServer::store_result(const auth::CytoCode& code,
                               StoredRecord record) {
  if (!durable_) {
    store_.store(code, std::move(record));
    return;
  }
  durable_->log_record(code.to_string(), record,
                       [&] { store_.store(code, std::move(record)); });
  durable_->maybe_compact(*this);
}

util::MultiChannelSeries CloudServer::decode_series(
    const net::SignalUploadPayload& payload) const {
  if (payload.compressed) return net::deserialize_packed_series(payload.data);
  return net::deserialize_series(payload.data);
}

net::Envelope CloudServer::error_response(
    const net::Envelope& request, std::span<const std::uint8_t> mac_key,
    net::ErrorCode code, std::uint8_t subcode, std::string detail,
    std::vector<std::uint8_t> channel_reasons) {
  net::ErrorPayload payload;
  payload.code = code;
  payload.subcode = subcode;
  payload.detail = std::move(detail);
  payload.channel_reasons = std::move(channel_reasons);
  counters_.count_error(request.device_id);
  return net::make_envelope(net::MessageType::kError, request.session_id,
                            request.device_id, payload.serialize(), mac_key,
                            request.counter);
}

ServiceStats CloudServer::stats() const { return counters_.aggregate(); }

std::uint64_t CloudServer::requests_processed() const {
  return counters_.aggregate().requests_processed;
}

std::uint64_t CloudServer::replays_served() const {
  return counters_.aggregate().replays_served;
}

CloudServer::ResolvedKey CloudServer::resolve_mac_key(
    const net::Envelope& request) {
  ResolvedKey resolved;
  // Revocation outranks every keying plane: a revoked device gets the
  // explicit kRevoked (unsigned — the server no longer speaks for it).
  if (devices_.is_revoked(request.device_id)) {
    resolved.error = error_response(
        request, {}, net::ErrorCode::kRevoked, 0,
        "device " + std::to_string(request.device_id) + " is revoked");
    return resolved;
  }

  if (request.type == net::MessageType::kAuthChallenge) {
    // Handshakes verify under the long-term key of the epoch the device
    // was personalized under. The payload is decoded before MAC
    // verification only to learn that epoch; a forgery still dies at
    // the MAC check below.
    std::uint32_t epoch = 0;
    try {
      epoch =
          net::AuthChallengePayload::deserialize(request.payload).key_epoch;
    } catch (const std::exception& e) {
      resolved.error =
          error_response(request, {}, net::ErrorCode::kMalformed, 0, e.what());
      return resolved;
    }
    auto key = devices_.lookup_epoch(request.device_id, epoch);
    if (!key && devices_.lookup(request.device_id).has_value()) {
      // Enrolled, but the named epoch's master is retired/unknown.
      resolved.error = error_response(
          request, {}, net::ErrorCode::kBadEpoch, 0,
          "key epoch " + std::to_string(epoch) + " is not derivable");
      return resolved;
    }
    if (!key) {
      resolved.error = error_response(
          request, {}, net::ErrorCode::kUnknownDevice, 0,
          "device " + std::to_string(request.device_id) +
              " is not provisioned");
      return resolved;
    }
    resolved.key = std::move(key);
    return resolved;
  }

  if (request.counter != 0) {
    // Session plane: the envelope claims a negotiated session. Its MAC
    // key is the derived session key — never a registry key.
    resolved.session_plane = true;
    auto key = sessions_.session_key(request.device_id, request.session_id);
    if (!key) {
      const auto longterm = devices_.lookup(request.device_id);
      resolved.error = error_response(
          request,
          longterm ? std::span<const std::uint8_t>(*longterm)
                   : std::span<const std::uint8_t>(),
          net::ErrorCode::kAuthRequired, 0,
          "no negotiated session for session_id " +
              std::to_string(request.session_id));
      return resolved;
    }
    resolved.key = std::move(key);
    return resolved;
  }

  // Counter-0 command plane: MAC'd with the device's long-term key, kept
  // as the incremental-upgrade fallback and closable per deployment.
  if (!allow_legacy_plane_) {
    const auto longterm = devices_.lookup(request.device_id);
    resolved.error = error_response(
        request,
        longterm ? std::span<const std::uint8_t>(*longterm)
                 : std::span<const std::uint8_t>(),
        net::ErrorCode::kAuthRequired, 0,
        "legacy static-key plane is disabled; negotiate a session");
    return resolved;
  }
  auto key = devices_.lookup(request.device_id);
  if (!key) {
    resolved.error = error_response(
        request, {}, net::ErrorCode::kUnknownDevice, 0,
        "device " + std::to_string(request.device_id) +
            " is not provisioned");
    return resolved;
  }
  resolved.key = std::move(key);
  return resolved;
}

net::Envelope CloudServer::handle(const net::Envelope& request) {
  // The whole request runs shard-local: admission is a lock-free atomic,
  // and the registry lookup, session-cache traffic, and stats increments
  // below all route on request.device_id — no cross-shard lock is ever
  // taken while a request is in flight.
  //
  // 1. Admission: shed instead of queueing unboundedly on the pool. The
  // error is signed with the device key when the sender is known (an
  // unknown-device envelope would be shed before its key is resolved).
  auto ticket = admission_.try_enter();
  if (!ticket.admitted()) {
    counters_.count_shed(request.device_id);
    const auto key = devices_.lookup(request.device_id);
    return error_response(
        request, key ? std::span<const std::uint8_t>(*key)
                     : std::span<const std::uint8_t>(),
        net::ErrorCode::kOverloaded, 0, "admission limit reached");
  }

  // 2. Key resolution: the MAC key comes from the registry (derived
  // under a master-key epoch) or the negotiated-session table — never from the
  // caller. Errors to unknown devices are unsigned (empty key) — the
  // server has no credential to speak for them.
  auto resolved = resolve_mac_key(request);
  if (resolved.error.has_value()) return *std::move(resolved.error);
  const auto& mac_key = resolved.key;

  // 3. Integrity: a tampering relay is detected here.
  if (!net::verify_envelope(request, *mac_key)) {
    return error_response(request, *mac_key, net::ErrorCode::kBadMac, 0,
                          "envelope MAC verification failed");
  }

  // 4. Idempotency: the reliable transport re-uploads when a response is
  // lost; byte-identical replays are served from the cache without a
  // second analysis. The cache is LRU-bounded; what a miss means differs
  // by plane — see the counter check below.
  const auto cached = cache_.lookup(request);
  if (cached.state == SessionCache::Lookup::kConflict) {
    return error_response(request, *mac_key, net::ErrorCode::kSessionConflict,
                          0,
                          "session " + std::to_string(request.session_id) +
                              " replayed with a different payload");
  }
  if (cached.state == SessionCache::Lookup::kReplay) {
    counters_.count_replay(request.device_id);
    return cached.response;
  }

  // 4b. Anti-replay: on the session plane every command counter is
  // checked against the device's sliding window. A counter the window
  // has already seen whose cached response was LRU-evicted is *not*
  // reprocessed — unlike the legacy plane, replaying an old command is
  // indistinguishable from an attack, so it dies here with
  // kStaleCounter rather than re-running the analysis.
  if (resolved.session_plane) {
    const auto status = sessions_.classify(
        request.device_id, request.session_id, request.counter);
    if (status != CounterStatus::kFresh) {
      counters_.count_counter_rejection(request.device_id);
      return error_response(
          request, *mac_key, net::ErrorCode::kStaleCounter, 0,
          "command counter " + std::to_string(request.counter) +
              " is outside the anti-replay window");
    }
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
        result = serve_handshake(request, *mac_key);
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

  if (!result.ok) {
    return error_response(request, *mac_key, result.error,
                          result.error_subcode, std::move(result.detail),
                          std::move(result.error_channel_reasons));
  }

  const auto response = net::make_envelope(
      result.response_type, request.session_id, request.device_id,
      std::move(result.response_payload), *mac_key, request.counter);
  cache_.insert(request, response);
  // Burn the counter only now that the exchange is cached: a shed or
  // rejected command keeps its counter retryable, and an ARQ
  // retransmission of this one finds the cached response above.
  if (resolved.session_plane)
    sessions_.commit(request.device_id, request.session_id, request.counter);
  counters_.count_processed(request.device_id, processing_time_s);
  return response;
}

ServiceResult CloudServer::serve_upload(const net::Envelope& request) {
  const auto payload = net::SignalUploadPayload::deserialize(request.payload);
  const auto series = decode_series(payload);
  if (quality_gate_) {
    const QualityReport quality = assess_quality(series);
    if (!quality.acceptable) {
      return ServiceResult::failure(
          net::ErrorCode::kQualityRejected,
          "acquisition rejected (" + quality.reason + ")",
          static_cast<std::uint8_t>(quality.reason_code),
          quality.channel_failure_bytes());
    }
  }
  const core::PeakReport report = analysis_.analyze(series);
  return ServiceResult::success(net::MessageType::kAnalysisResult,
                                report.serialize());
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

  sessions_.establish(
      request.device_id, request.session_id,
      crypto::derive_session_mac_key(mac_key, challenge.challenge,
                                     response.challenge));
  counters_.count_handshake(request.device_id);
  return ServiceResult::success(net::MessageType::kAuthResponse,
                                response.serialize());
}

}  // namespace medsen::cloud
