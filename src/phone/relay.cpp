#include "phone/relay.h"

#include <algorithm>
#include <chrono>

namespace medsen::phone {

namespace {

double measure(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

PhoneRelay::PhoneRelay(RelayConfig config) : config_(std::move(config)) {}

void PhoneRelay::report(const std::string& message) {
  if (progress_) progress_(message);
}

net::SignalUploadPayload PhoneRelay::build_payload(
    const util::MultiChannelSeries& series) {
  timing_ = RelayTiming{};
  report("receiving measurement from sensor");
  const std::size_t raw_size = net::serialized_series_size(series);
  timing_.usb_in_s = config_.usb.transfer_time_s(raw_size);

  net::SignalUploadPayload payload;
  payload.sample_rate_hz = series.channels.empty()
                               ? 450.0
                               : series.channels.front().sample_rate();
  if (config_.compress_uploads &&
      raw_size >= config_.compression_threshold_bytes) {
    report("compressing upload");
    const double t =
        measure([&] { payload.data = net::pack_series(series); });
    timing_.compression_s = config_.profile.scale(t);
    payload.compressed = true;
  } else {
    payload.data = net::serialize_series(series);
  }
  last_upload_bytes_ = payload.data.size();
  return payload;
}

std::optional<net::Envelope> PhoneRelay::reliable_exchange(
    const net::Envelope& upload,
    const std::function<net::Envelope(const net::Envelope&)>& handler) {
  net::SimulatedClock clock;
  net::FaultyLink up(config_.uplink, config_.uplink_faults, &clock);
  net::FaultyLink down(config_.downlink, config_.downlink_faults, &clock);
  net::ReliableChannel channel(up, down, clock, config_.reliable);

  const auto wire = upload.serialize();
  const auto result = channel.request(
      wire, [&](std::span<const std::uint8_t> delivered) {
        // The reliable channel reassembles the exact bytes the phone
        // sent; the strict decoder would throw on anything else.
        const auto request = net::Envelope::deserialize(delivered);
        net::Envelope response;
        const double t = measure([&] { response = handler(request); });
        timing_.analysis_s = t;
        return response.serialize();
      });

  const auto& stats = channel.stats();
  timing_.uplink_s = stats.request.elapsed_s;
  timing_.downlink_s = stats.response.elapsed_s;
  timing_.retransmissions =
      stats.request.retransmissions + stats.response.retransmissions;
  timing_.timeouts = stats.request.timeouts + stats.response.timeouts;
  if (!result.has_value()) return std::nullopt;
  return net::Envelope::deserialize(*result);
}

bool PhoneRelay::establish_session(core::Controller& controller,
                                   std::uint64_t session_id,
                                   cloud::CloudServer& server) {
  auto* crypto = controller.session_crypto();
  if (crypto == nullptr) return false;
  report("negotiating session keys");
  const auto challenge = crypto->make_challenge(session_id);

  net::Envelope response;
  if (config_.reliable_transport) {
    auto exchanged = reliable_exchange(
        challenge,
        [&](const net::Envelope& req) { return server.handle(req); });
    if (!exchanged.has_value()) {
      report("session negotiation failed: cloud unreachable");
      return false;
    }
    response = std::move(*exchanged);
  } else {
    response = server.handle(challenge);
  }

  const bool ok = crypto->complete(response);
  report(ok ? "session keys established"
            : "session negotiation failed: proof rejected");
  return ok;
}

core::PeakReport PhoneRelay::run_local_analysis(
    const util::MultiChannelSeries& series,
    const cloud::AnalysisConfig& config) {
  cloud::AnalysisService service(config);
  core::PeakReport report_out;
  const double t = measure([&] { report_out = service.analyze(series); });
  timing_.analysis_s = config_.profile.scale(t);
  return report_out;
}

std::optional<net::Envelope> PhoneRelay::exchange(
    net::MessageType type, std::vector<std::uint8_t> payload,
    const std::string& uploading, std::uint64_t& session_id,
    std::span<const std::uint8_t>& mac_key, core::SessionCrypto* crypto,
    cloud::CloudServer& server) {
  std::uint32_t counter = 0;
  if (crypto != nullptr && crypto->active()) {
    session_id = crypto->session_id();
    counter = crypto->next_counter();
    // Borrow the session key in place — a local copy would outlive its
    // wipe; the SessionCrypto outlives this call.
    mac_key = crypto->session_mac_key();
  }
  const auto upload = net::make_envelope(type, session_id, config_.device_id,
                                         std::move(payload), mac_key, counter);
  report(uploading);

  net::Envelope response;
  if (config_.reliable_transport) {
    auto exchanged = reliable_exchange(
        upload, [&](const net::Envelope& req) { return server.handle(req); });
    if (!exchanged.has_value()) return std::nullopt;
    response = std::move(*exchanged);
  } else {
    timing_.uplink_s =
        config_.uplink.transfer_time_s(upload.payload.size());
    const double t = measure([&] { response = server.handle(upload); });
    timing_.analysis_s = t;
    timing_.downlink_s =
        config_.downlink.transfer_time_s(response.payload.size());
  }
  timing_.usb_out_s = config_.usb.transfer_time_s(response.payload.size());
  return response;
}

net::Envelope PhoneRelay::relay_analysis(
    const util::MultiChannelSeries& series, std::uint64_t session_id,
    cloud::CloudServer& server, std::span<const std::uint8_t> mac_key,
    core::SessionCrypto* crypto) {
  auto response =
      exchange(net::MessageType::kSignalUpload,
               build_payload(series).serialize(), "uploading to cloud",
               session_id, mac_key, crypto, server);
  if (!response.has_value()) {
    // Retry budget exhausted: the cloud is unreachable. Degrade
    // gracefully to the on-phone analysis path (paper Fig. 14
    // discussion) instead of failing the test session.
    report("cloud unreachable; analyzing locally on phone");
    timing_.local_fallback = true;
    const auto local = run_local_analysis(series, config_.local_analysis);
    report("local analysis complete");
    return net::make_envelope(net::MessageType::kAnalysisResult, session_id,
                              config_.device_id, local.serialize(), mac_key);
  }
  report("downloading analysis result");
  report("analysis complete");
  return *std::move(response);
}

net::Envelope PhoneRelay::relay_auth(const util::MultiChannelSeries& series,
                                     std::uint64_t session_id,
                                     double volume_ul,
                                     cloud::CloudServer& server,
                                     std::span<const std::uint8_t> mac_key,
                                     double duration_s,
                                     core::SessionCrypto* crypto) {
  net::AuthPassPayload pass;
  pass.upload = build_payload(series);
  pass.volume_ul = volume_ul;
  pass.duration_s = duration_s;
  auto response = exchange(net::MessageType::kAuthPass, pass.serialize(),
                           "uploading authentication pass", session_id,
                           mac_key, crypto, server);
  if (!response.has_value())
    // Unlike diagnostics, authentication cannot fall back to the
    // phone: the enrollment database lives in the cloud.
    throw net::TransportError(
        "PhoneRelay: auth upload failed, retry budget exhausted");
  report("downloading auth decision");
  report("authentication complete");
  return *std::move(response);
}

SessionOutcome PhoneRelay::run_diagnostic_session(
    core::Controller& controller, double duration_s, const AcquireFn& acquire,
    std::uint64_t session_base_id, cloud::CloudServer& server,
    std::span<const std::uint8_t> mac_key) {
  SessionOutcome outcome;
  const std::size_t max_attempts =
      std::max<std::size_t>(1, controller.retry_policy().max_attempts);
  util::MultiChannelSeries last_series;

  // Session-crypto plane: handshake once up front; all attempts then
  // share the negotiated session, distinguished by command counter. The
  // handshake (and each re-handshake) consumes its own id above
  // session_base_id so the server's idempotency cache never sees two
  // different challenges under one key.
  core::SessionCrypto* crypto = controller.session_crypto();
  std::uint64_t handshakes = 0;
  if (crypto != nullptr && !crypto->active()) {
    if (!establish_session(controller, session_base_id + handshakes, server))
      report("continuing on the legacy static-key plane");
    ++handshakes;
  }

  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const auto control = attempt == 0
                             ? controller.begin_session(duration_s)
                             : controller.begin_retry_session(duration_s);
    report("acquiring (attempt " + std::to_string(attempt + 1) + ")");
    last_series = acquire(control, duration_s, attempt);
    ++outcome.attempts;

    // Each attempt gets its own session id (legacy plane) or its own
    // command counter (session plane): the server's idempotency cache
    // would flag a re-acquisition under the old key as a replay with a
    // different payload (kSessionConflict).
    outcome.last_response = relay_analysis(
        last_series, session_base_id + attempt, server, mac_key, crypto);
    outcome.retransmissions += timing_.retransmissions;
    outcome.timeouts += timing_.timeouts;

    // kAuthRequired means the server no longer holds our session — it
    // restarted or the fleet was re-keyed. Re-handshake under a fresh
    // id (counters restart under the new key) and resend this attempt.
    if (crypto != nullptr && crypto->active() &&
        outcome.last_response.type == net::MessageType::kError) {
      const auto probe =
          net::ErrorPayload::deserialize(outcome.last_response.payload);
      if (probe.code == net::ErrorCode::kAuthRequired) {
        report("server dropped the session; re-keying");
        crypto->invalidate();
        if (establish_session(controller, session_base_id + handshakes,
                              server)) {
          outcome.last_response = relay_analysis(
              last_series, session_base_id + attempt, server, mac_key,
              crypto);
          outcome.retransmissions += timing_.retransmissions;
          outcome.timeouts += timing_.timeouts;
        }
        ++handshakes;
      }
    }

    if (outcome.last_response.type == net::MessageType::kAnalysisResult) {
      const auto peaks =
          core::PeakReport::deserialize(outcome.last_response.payload);
      outcome.diagnosis = controller.conclude(peaks);
      outcome.recovered = outcome.quality_rejections > 0;
      report("session complete (attempt " + std::to_string(attempt + 1) +
             ")");
      return outcome;
    }

    const auto error =
        net::ErrorPayload::deserialize(outcome.last_response.payload);
    if (error.code == net::ErrorCode::kQualityRejected)
      ++outcome.quality_rejections;
    if (attempt + 1 >= max_attempts) break;  // no budget left to plan for

    const core::RecoveryPlan plan = controller.plan_recovery(error);
    outcome.actions.push_back(plan.action);
    report("attempt " + std::to_string(attempt + 1) + " rejected (" +
           error.detail + "); recovery: " + core::to_string(plan.action));
  }

  // Retry budget exhausted: degrade to a best-effort on-phone analysis
  // of the last acquisition rather than throwing the session away. The
  // local service has no quality gate, so it always yields a report.
  outcome.actions.push_back(core::RecoveryAction::kGiveUp);
  outcome.degraded = true;
  report("retries exhausted; degrading to on-phone analysis");
  timing_.local_fallback = true;
  const auto local = run_local_analysis(last_series, config_.local_analysis);
  outcome.last_response = net::make_envelope(
      net::MessageType::kAnalysisResult, session_base_id + outcome.attempts,
      config_.device_id, local.serialize(), mac_key);
  outcome.diagnosis = controller.conclude_degraded(local);
  return outcome;
}

core::PeakReport PhoneRelay::analyze_locally(
    const util::MultiChannelSeries& series,
    const cloud::AnalysisConfig& config) {
  timing_ = RelayTiming{};
  report("analyzing locally on phone");
  const auto report_out = run_local_analysis(series, config);
  report("local analysis complete");
  return report_out;
}

}  // namespace medsen::phone
