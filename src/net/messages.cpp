#include "net/messages.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "compress/codec.h"
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

constexpr std::uint32_t kPackedMagic = 0x4D535031;  // "MSP1"
constexpr std::size_t kPlanes = sizeof(double);
/// Carrier, rate and start time (f64 each) plus the u32 sample count.
constexpr std::size_t kChannelHeaderBytes = 3 * sizeof(double) + 4;
/// A plane goes to the codec only below this order-0 entropy. Sensor
/// noise planes measure 7.86-7.98 bits/byte, where the codec wins
/// nothing; the sign, exponent and high-mantissa planes at most ~4.3.
constexpr double kCodedPlaneMaxBits = 7.0;

/// Reads a channel's sample rate. util::TimeSeries refuses a
/// non-positive rate with std::invalid_argument; off the wire that is
/// malformed input like any other.
double read_rate(util::ByteReader& in) {
  const double rate = in.f64();
  if (rate <= 0.0)
    throw std::runtime_error("series: sample rate must be positive");
  return rate;
}

/// Order-0 entropy, in bits per byte, of `n` bytes with histogram `hist`.
double entropy_bits(const std::array<std::uint32_t, 256>& hist,
                    std::size_t n) {
  double sum = 0.0;
  for (const std::uint32_t c : hist)
    if (c != 0) sum += c * std::log2(static_cast<double>(c));
  const double total = static_cast<double>(n);
  return std::log2(total) - sum / total;
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
  p.compressed = in.flag();
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
  const std::uint32_t n = in.count_u32(kChannelHeaderBytes);
  for (std::uint32_t i = 0; i < n; ++i) {
    series.carrier_frequencies_hz.push_back(in.f64());
    const double rate = read_rate(in);
    const double start = in.f64();
    series.channels.emplace_back(rate, in.f64_vec(), start);
  }
  in.expect_done("deserialize_series");
  return series;
}

std::size_t serialized_series_size(const util::MultiChannelSeries& series) {
  std::size_t size = 4;
  for (const auto& ch : series.channels)
    size += kChannelHeaderBytes + ch.size() * sizeof(double);
  return size;
}

std::vector<std::uint8_t> pack_series(const util::MultiChannelSeries& series) {
  const std::size_t channels = series.channels.size();
  // planes[c] holds channel c's n samples as eight n-byte planes.
  std::vector<std::vector<std::uint8_t>> planes(channels);
  std::vector<std::uint8_t> masks(channels, 0);
  std::vector<std::uint8_t> coded;
  for (std::size_t c = 0; c < channels; ++c) {
    const auto samples = series.channels[c].samples();
    const std::size_t n = samples.size();
    auto& plane = planes[c];
    plane.resize(kPlanes * n);
    std::array<std::array<std::uint32_t, 256>, kPlanes> hist{};
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &samples[i], sizeof(bits));
      for (std::size_t k = 0; k < kPlanes; ++k) {
        const auto byte = static_cast<std::uint8_t>(bits >> (8 * k));
        plane[k * n + i] = byte;
        ++hist[k][byte];
      }
    }
    for (std::size_t k = 0; k < kPlanes && n > 0; ++k) {
      if (entropy_bits(hist[k], n) >= kCodedPlaneMaxBits) continue;
      masks[c] = static_cast<std::uint8_t>(masks[c] | (1u << k));
      coded.insert(coded.end(), plane.begin() + static_cast<long>(k * n),
                   plane.begin() + static_cast<long>((k + 1) * n));
    }
  }
  // One codec call for every coded plane: each container carries its
  // own header and code tables.
  std::vector<std::uint8_t> block;
  if (!coded.empty()) {
    block = compress::compress(coded);
    if (block.size() >= coded.size()) {
      block.clear();
      std::fill(masks.begin(), masks.end(), std::uint8_t{0});
    }
  }

  util::ByteWriter out;
  out.u32(kPackedMagic);
  out.u32(static_cast<std::uint32_t>(channels));
  for (std::size_t c = 0; c < channels; ++c) {
    const auto& ch = series.channels[c];
    out.f64(series.carrier_frequencies_hz.at(c));
    out.f64(ch.sample_rate());
    out.f64(ch.start_time());
    out.u32(static_cast<std::uint32_t>(ch.size()));
    out.u8(masks[c]);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    const std::size_t n = series.channels[c].size();
    const std::span<const std::uint8_t> plane(planes[c]);
    for (std::size_t k = 0; k < kPlanes; ++k)
      if ((masks[c] >> k & 1u) == 0) out.bytes(plane.subspan(k * n, n));
  }
  out.blob(block);
  return out.take();
}

util::MultiChannelSeries deserialize_packed_series(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  if (in.u32() != kPackedMagic)
    // One MSZ1 container holding a whole serialized series, as relays
    // sent before byte planes; decompress() refuses any other magic.
    return deserialize_series(compress::decompress(bytes));

  struct ChannelHeader {
    double carrier_hz = 0.0;
    double rate = 0.0;
    double start = 0.0;
    std::uint32_t n = 0;
    std::uint8_t mask = 0;
  };
  // Each channel needs at least its header and coded-plane mask.
  std::vector<ChannelHeader> headers(in.count_u32(kChannelHeaderBytes + 1));
  std::uint64_t raw_bytes = 0;
  std::uint64_t coded_bytes = 0;
  for (auto& h : headers) {
    h.carrier_hz = in.f64();
    h.rate = read_rate(in);
    h.start = in.f64();
    h.n = in.u32();
    h.mask = in.u8();
    const auto coded_planes = static_cast<std::uint64_t>(std::popcount(h.mask));
    raw_bytes += (kPlanes - coded_planes) * h.n;
    coded_bytes += coded_planes * h.n;
  }
  std::span<const std::uint8_t> raw = in.bytes(raw_bytes);
  const std::span<const std::uint8_t> block = in.bytes(in.u32());
  in.expect_done("deserialize_packed_series");

  std::vector<std::uint8_t> decoded;
  if (coded_bytes == 0) {
    if (!block.empty())
      throw std::runtime_error(
          "deserialize_packed_series: coded block without coded planes");
  } else {
    decoded = compress::decompress(block);
    if (decoded.size() != coded_bytes)
      throw std::runtime_error(
          "deserialize_packed_series: coded block size mismatch");
  }

  util::MultiChannelSeries series;
  series.carrier_frequencies_hz.reserve(headers.size());
  series.channels.reserve(headers.size());
  std::span<const std::uint8_t> coded(decoded);
  for (const auto& h : headers) {
    std::array<std::span<const std::uint8_t>, kPlanes> plane;
    for (std::size_t k = 0; k < kPlanes; ++k) {
      auto& source = (h.mask >> k & 1u) != 0 ? coded : raw;
      plane[k] = source.first(h.n);
      source = source.subspan(h.n);
    }
    std::vector<double> samples(h.n);
    for (std::size_t i = 0; i < h.n; ++i) {
      std::uint64_t bits = 0;
      for (std::size_t k = 0; k < kPlanes; ++k)
        bits |= static_cast<std::uint64_t>(plane[k][i]) << (8 * k);
      std::memcpy(&samples[i], &bits, sizeof(bits));
    }
    series.carrier_frequencies_hz.push_back(h.carrier_hz);
    series.channels.emplace_back(h.rate, std::move(samples), h.start);
  }
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
  p.authenticated = in.flag();
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
