#include "net/messages.h"

#include <stdexcept>

#include "util/serialize.h"

namespace medsen::net {

namespace {

/// HMAC over the 21-byte header (type, session, device, counter) and
/// then the payload, streamed in one pass without copying the payload.
crypto::Sha256Digest envelope_mac(MessageType type, std::uint64_t session,
                                  std::uint64_t device, std::uint32_t counter,
                                  std::span<const std::uint8_t> payload,
                                  std::span<const std::uint8_t> mac_key) {
  util::ByteWriter header;
  header.u8(static_cast<std::uint8_t>(type));
  header.u64(session);
  header.u64(device);
  header.u32(counter);
  crypto::HmacSha256 mac(mac_key);
  mac.update(header.data());
  mac.update(payload);
  return mac.finish();
}

}  // namespace

std::vector<std::uint8_t> Envelope::serialize() const {
  util::ByteWriter out;
  out.u8(static_cast<std::uint8_t>(type));
  out.u64(session_id);
  out.u64(device_id);
  out.u32(counter);
  out.blob(payload);
  out.bytes(mac);
  return out.take();
}

Envelope Envelope::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  Envelope e;
  e.type = static_cast<MessageType>(in.u8());
  e.session_id = in.u64();
  e.device_id = in.u64();
  e.counter = in.u32();
  e.payload = in.blob();
  if (in.remaining() < e.mac.size())
    throw std::runtime_error("Envelope: truncated MAC");
  for (auto& b : e.mac) b = in.u8();
  if (!in.done())
    throw std::runtime_error("Envelope: trailing bytes after MAC");
  return e;
}

Envelope make_envelope(MessageType type, std::uint64_t session_id,
                       std::uint64_t device_id,
                       std::vector<std::uint8_t> payload,
                       std::span<const std::uint8_t> mac_key,
                       std::uint32_t counter) {
  Envelope e;
  e.type = type;
  e.session_id = session_id;
  e.device_id = device_id;
  e.counter = counter;
  e.payload = std::move(payload);
  e.mac = envelope_mac(type, session_id, device_id, counter, e.payload,
                       mac_key);
  return e;
}

bool verify_envelope(const Envelope& envelope,
                     std::span<const std::uint8_t> mac_key) {
  const auto expected =
      envelope_mac(envelope.type, envelope.session_id, envelope.device_id,
                   envelope.counter, envelope.payload, mac_key);
  return crypto::digest_equal(expected, envelope.mac);
}

std::vector<std::uint8_t> SignalUploadPayload::serialize() const {
  util::ByteWriter out;
  out.u8(compressed ? 1 : 0);
  out.f64(sample_rate_hz);
  out.blob(data);
  return out.take();
}

SignalUploadPayload SignalUploadPayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  SignalUploadPayload p;
  p.compressed = in.u8() != 0;
  p.sample_rate_hz = in.f64();
  p.data = in.blob();
  in.expect_done("SignalUploadPayload");
  return p;
}

std::vector<std::uint8_t> AuthPassPayload::serialize() const {
  util::ByteWriter out;
  out.f64(volume_ul);
  out.f64(duration_s);
  out.blob(upload.serialize());
  return out.take();
}

AuthPassPayload AuthPassPayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  AuthPassPayload p;
  p.volume_ul = in.f64();
  p.duration_s = in.f64();
  const auto upload_bytes = in.blob();
  in.expect_done("AuthPassPayload");
  p.upload = SignalUploadPayload::deserialize(upload_bytes);
  return p;
}

std::vector<std::uint8_t> AuthChallengePayload::serialize() const {
  util::ByteWriter out;
  out.u32(key_epoch);
  out.bytes(challenge);
  return out.take();
}

AuthChallengePayload AuthChallengePayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  AuthChallengePayload p;
  p.key_epoch = in.u32();
  if (in.remaining() < p.challenge.size())
    throw std::runtime_error("AuthChallengePayload: truncated challenge");
  for (auto& b : p.challenge) b = in.u8();
  in.expect_done("AuthChallengePayload");
  return p;
}

std::vector<std::uint8_t> AuthResponsePayload::serialize() const {
  util::ByteWriter out;
  out.bytes(challenge);
  out.bytes(proof);
  return out.take();
}

AuthResponsePayload AuthResponsePayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  AuthResponsePayload p;
  if (in.remaining() < p.challenge.size() + p.proof.size())
    throw std::runtime_error("AuthResponsePayload: truncated");
  for (auto& b : p.challenge) b = in.u8();
  for (auto& b : p.proof) b = in.u8();
  in.expect_done("AuthResponsePayload");
  return p;
}

std::vector<std::uint8_t> serialize_series(
    const util::MultiChannelSeries& series) {
  util::ByteWriter out;
  out.u32(static_cast<std::uint32_t>(series.channels.size()));
  for (std::size_t i = 0; i < series.channels.size(); ++i) {
    out.f64(series.carrier_frequencies_hz.at(i));
    const auto& ch = series.channels[i];
    out.f64(ch.sample_rate());
    out.f64(ch.start_time());
    out.f64_vec(ch.samples());
  }
  return out.take();
}

util::MultiChannelSeries deserialize_series(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  util::MultiChannelSeries series;
  // Each channel needs at least carrier + rate + start + count.
  const std::uint32_t n = in.count_u32(3 * sizeof(double) + 4);
  for (std::uint32_t i = 0; i < n; ++i) {
    series.carrier_frequencies_hz.push_back(in.f64());
    const double rate = in.f64();
    const double start = in.f64();
    series.channels.emplace_back(rate, in.f64_vec(), start);
  }
  in.expect_done("deserialize_series");
  return series;
}

std::vector<std::uint8_t> AuthDecisionPayload::serialize() const {
  util::ByteWriter out;
  out.u8(authenticated ? 1 : 0);
  out.str(user_id);
  out.f64(distance);
  return out.take();
}

AuthDecisionPayload AuthDecisionPayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  AuthDecisionPayload p;
  p.authenticated = in.u8() != 0;
  p.user_id = in.str();
  p.distance = in.f64();
  in.expect_done("AuthDecisionPayload");
  return p;
}

const char* to_string(QualityReason reason) {
  switch (reason) {
    case QualityReason::kNone: return "acceptable";
    case QualityReason::kNoChannels: return "no channels";
    case QualityReason::kEmptyChannel: return "empty channel";
    case QualityReason::kSaturated: return "saturated";
    case QualityReason::kDropout: return "dropout";
    case QualityReason::kNoiseFloor: return "noise floor";
    case QualityReason::kDrift: return "drift";
  }
  return "unknown";
}

bool more_severe(QualityReason a, QualityReason b) {
  if (a == QualityReason::kNone) return false;
  if (b == QualityReason::kNone) return true;
  return static_cast<std::uint8_t>(a) < static_cast<std::uint8_t>(b);
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMac: return "bad MAC";
    case ErrorCode::kQualityRejected: return "quality rejected";
    case ErrorCode::kUnknownDevice: return "unknown device";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kMalformed: return "malformed request";
    case ErrorCode::kSessionConflict: return "session conflict";
    case ErrorCode::kStaleCounter: return "stale counter";
    case ErrorCode::kAuthRequired: return "authentication required";
    case ErrorCode::kRevoked: return "device revoked";
    case ErrorCode::kBadEpoch: return "bad key epoch";
  }
  return "unknown error";
}

std::vector<std::uint8_t> ErrorPayload::serialize() const {
  util::ByteWriter out;
  out.u8(static_cast<std::uint8_t>(code));
  out.u8(subcode);
  out.str(detail);
  out.blob(channel_reasons);
  return out.take();
}

ErrorPayload ErrorPayload::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  ErrorPayload p;
  p.code = static_cast<ErrorCode>(in.u8());
  p.subcode = in.u8();
  p.detail = in.str();
  p.channel_reasons = in.blob();
  in.expect_done("ErrorPayload");
  return p;
}

}  // namespace medsen::net
