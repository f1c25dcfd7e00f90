#include "net/messages.h"

#include <gtest/gtest.h>

#include "util/serialize.h"

namespace medsen::net {
namespace {

const std::vector<std::uint8_t> kKey = {1, 2, 3, 4, 5, 6, 7, 8};

TEST(Messages, EnvelopeRoundTrip) {
  const auto envelope =
      make_envelope(MessageType::kSignalUpload, 42, 17, {9, 8, 7}, kKey);
  const auto restored = Envelope::deserialize(envelope.serialize());
  EXPECT_EQ(restored.type, MessageType::kSignalUpload);
  EXPECT_EQ(restored.session_id, 42u);
  EXPECT_EQ(restored.device_id, 17u);
  EXPECT_EQ(restored.payload, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(verify_envelope(restored, kKey));
}

TEST(Messages, TamperedPayloadFailsMac) {
  auto envelope = make_envelope(MessageType::kSignalUpload, 1, 1, {1, 2}, kKey);
  envelope.payload[0] ^= 0xFF;
  EXPECT_FALSE(verify_envelope(envelope, kKey));
}

TEST(Messages, TamperedSessionIdFailsMac) {
  auto envelope = make_envelope(MessageType::kSignalUpload, 1, 1, {1, 2}, kKey);
  envelope.session_id = 2;
  EXPECT_FALSE(verify_envelope(envelope, kKey));
}

TEST(Messages, TamperedDeviceIdFailsMac) {
  // The device_id binds the envelope to its tenant; a relay must not be
  // able to re-attribute a request to another dongle.
  auto envelope = make_envelope(MessageType::kSignalUpload, 1, 4, {1, 2}, kKey);
  envelope.device_id = 5;
  EXPECT_FALSE(verify_envelope(envelope, kKey));
}

TEST(Messages, EnvelopeCounterRoundTrip) {
  const auto envelope =
      make_envelope(MessageType::kSignalUpload, 42, 17, {9, 8, 7}, kKey, 31);
  const auto restored = Envelope::deserialize(envelope.serialize());
  EXPECT_EQ(restored.counter, 31u);
  EXPECT_TRUE(verify_envelope(restored, kKey));
}

TEST(Messages, TamperedCounterFailsMac) {
  // The command counter is the anti-replay ordinal; a relay must not be
  // able to rewrite it without breaking the MAC.
  auto envelope =
      make_envelope(MessageType::kSignalUpload, 1, 1, {1, 2}, kKey, 5);
  envelope.counter = 6;
  EXPECT_FALSE(verify_envelope(envelope, kKey));
}

TEST(Messages, WrongKeyFailsMac) {
  const auto envelope =
      make_envelope(MessageType::kSignalUpload, 1, 1, {1, 2}, kKey);
  const std::vector<std::uint8_t> other = {9, 9, 9};
  EXPECT_FALSE(verify_envelope(envelope, other));
}

TEST(Messages, SignalUploadPayloadRoundTrip) {
  SignalUploadPayload payload;
  payload.compressed = true;
  payload.sample_rate_hz = 450.0;
  payload.data = {1, 2, 3};
  const auto restored =
      SignalUploadPayload::deserialize(payload.serialize());
  EXPECT_TRUE(restored.compressed);
  EXPECT_DOUBLE_EQ(restored.sample_rate_hz, 450.0);
  EXPECT_EQ(restored.data, payload.data);
}

TEST(Messages, AuthPassPayloadRoundTrip) {
  AuthPassPayload pass;
  pass.upload.compressed = true;
  pass.upload.sample_rate_hz = 450.0;
  pass.upload.data = {4, 5, 6};
  pass.volume_ul = 0.75;
  pass.duration_s = 420.0;
  const auto restored = AuthPassPayload::deserialize(pass.serialize());
  EXPECT_TRUE(restored.upload.compressed);
  EXPECT_EQ(restored.upload.data, pass.upload.data);
  EXPECT_DOUBLE_EQ(restored.volume_ul, 0.75);
  EXPECT_DOUBLE_EQ(restored.duration_s, 420.0);
}

TEST(Messages, ErrorPayloadRoundTrip) {
  ErrorPayload error;
  error.code = ErrorCode::kQualityRejected;
  error.subcode = 3;
  error.detail = "acquisition rejected (saturated)";
  const auto restored = ErrorPayload::deserialize(error.serialize());
  EXPECT_EQ(restored.code, ErrorCode::kQualityRejected);
  EXPECT_EQ(restored.subcode, 3u);
  EXPECT_EQ(restored.detail, "acquisition rejected (saturated)");
  EXPECT_TRUE(restored.channel_reasons.empty());
}

TEST(Messages, ErrorPayloadChannelReasonsRoundTrip) {
  ErrorPayload error;
  error.code = ErrorCode::kQualityRejected;
  error.subcode = static_cast<std::uint8_t>(QualityReason::kSaturated);
  error.detail = "channel 0: saturated/implausible samples";
  // One failure bitmask per channel: bit (1 << reason).
  error.channel_reasons = {
      static_cast<std::uint8_t>(
          1u << static_cast<std::uint8_t>(QualityReason::kSaturated)),
      0,
      static_cast<std::uint8_t>(
          (1u << static_cast<std::uint8_t>(QualityReason::kNoiseFloor)) |
          (1u << static_cast<std::uint8_t>(QualityReason::kDrift)))};
  const auto restored = ErrorPayload::deserialize(error.serialize());
  EXPECT_EQ(restored.channel_reasons, error.channel_reasons);
}

TEST(Messages, QualityReasonSeverityOrdering) {
  // Lower nonzero wire value = more severe; kNone never wins.
  EXPECT_TRUE(
      more_severe(QualityReason::kSaturated, QualityReason::kDrift));
  EXPECT_TRUE(
      more_severe(QualityReason::kNoiseFloor, QualityReason::kNone));
  EXPECT_FALSE(
      more_severe(QualityReason::kNone, QualityReason::kDrift));
  EXPECT_FALSE(
      more_severe(QualityReason::kDrift, QualityReason::kSaturated));
  EXPECT_STREQ(to_string(QualityReason::kDropout), "dropout");
}

TEST(Messages, ErrorCodeNames) {
  EXPECT_STREQ(to_string(ErrorCode::kBadMac), "bad MAC");
  EXPECT_STREQ(to_string(ErrorCode::kQualityRejected), "quality rejected");
  EXPECT_STREQ(to_string(ErrorCode::kUnknownDevice), "unknown device");
  EXPECT_STREQ(to_string(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(ErrorCode::kMalformed), "malformed request");
  EXPECT_STREQ(to_string(ErrorCode::kSessionConflict), "session conflict");
  EXPECT_STREQ(to_string(ErrorCode::kStaleCounter), "stale counter");
  EXPECT_STREQ(to_string(ErrorCode::kAuthRequired), "authentication required");
  EXPECT_STREQ(to_string(ErrorCode::kRevoked), "device revoked");
  EXPECT_STREQ(to_string(ErrorCode::kBadEpoch), "bad key epoch");
}

TEST(Messages, AuthChallengePayloadRoundTrip) {
  AuthChallengePayload payload;
  payload.key_epoch = 3;
  for (std::size_t i = 0; i < payload.challenge.size(); ++i)
    payload.challenge[i] = static_cast<std::uint8_t>(i * 7);
  const auto restored =
      AuthChallengePayload::deserialize(payload.serialize());
  EXPECT_EQ(restored.key_epoch, 3u);
  EXPECT_EQ(restored.challenge, payload.challenge);
}

TEST(Messages, AuthResponsePayloadRoundTrip) {
  AuthResponsePayload payload;
  for (std::size_t i = 0; i < payload.challenge.size(); ++i) {
    payload.challenge[i] = static_cast<std::uint8_t>(i + 1);
    payload.proof[i] = static_cast<std::uint8_t>(0xF0 - i);
  }
  const auto restored =
      AuthResponsePayload::deserialize(payload.serialize());
  EXPECT_EQ(restored.challenge, payload.challenge);
  EXPECT_EQ(restored.proof, payload.proof);
}

TEST(Messages, SeriesRoundTrip) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5e5, 2e6};
  series.channels.emplace_back(450.0, std::vector<double>{1.0, 0.99, 1.01},
                               2.5);
  series.channels.emplace_back(450.0, std::vector<double>{1.0, 0.98, 1.02},
                               2.5);
  const auto restored = deserialize_series(serialize_series(series));
  ASSERT_EQ(restored.channels.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.carrier_frequencies_hz[1], 2e6);
  EXPECT_DOUBLE_EQ(restored.channels[0].sample_rate(), 450.0);
  EXPECT_DOUBLE_EQ(restored.channels[0].start_time(), 2.5);
  EXPECT_DOUBLE_EQ(restored.channels[1][2], 1.02);
}

TEST(Messages, AuthDecisionRoundTrip) {
  AuthDecisionPayload payload;
  payload.authenticated = true;
  payload.user_id = "alice";
  payload.distance = 0.25;
  const auto restored =
      AuthDecisionPayload::deserialize(payload.serialize());
  EXPECT_TRUE(restored.authenticated);
  EXPECT_EQ(restored.user_id, "alice");
  EXPECT_DOUBLE_EQ(restored.distance, 0.25);
}

TEST(Messages, EnvelopeTrailingBytesRejected) {
  const auto envelope =
      make_envelope(MessageType::kSignalUpload, 7, 1, {1, 2, 3}, kKey);
  auto bytes = envelope.serialize();
  bytes.push_back(0xAB);  // garbage after the MAC
  EXPECT_THROW(Envelope::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(Envelope::deserialize(bytes));
}

TEST(Messages, TruncatedEnvelopeThrows) {
  const auto envelope =
      make_envelope(MessageType::kSignalUpload, 1, 1, {1, 2, 3}, kKey);
  const auto bytes = envelope.serialize();
  const std::span<const std::uint8_t> cut(bytes.data(), bytes.size() - 10);
  EXPECT_THROW(Envelope::deserialize(cut), std::runtime_error);
}

// --- Malformed-input rejection ----------------------------------------
// Every payload decoder is strict: truncated input and trailing bytes
// both throw rather than yielding a partially-initialized message.

TEST(Messages, SignalUploadPayloadTrailingBytesRejected) {
  SignalUploadPayload payload;
  payload.data = {1, 2, 3};
  auto bytes = payload.serialize();
  bytes.push_back(0x00);
  EXPECT_THROW(SignalUploadPayload::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(SignalUploadPayload::deserialize(bytes));
}

TEST(Messages, SignalUploadPayloadTruncatedThrows) {
  SignalUploadPayload payload;
  payload.data = {1, 2, 3};
  const auto bytes = payload.serialize();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::span<const std::uint8_t> cut(bytes.data(), n);
    EXPECT_THROW(SignalUploadPayload::deserialize(cut), std::out_of_range)
        << "prefix of " << n << " bytes";
  }
}

TEST(Messages, SignalUploadPayloadFlagAboveOneRejected) {
  // Only 0 and 1 are booleans: a decoder that took 0x02 as `true` would
  // accept a byte string that re-serializes differently.
  SignalUploadPayload payload;
  payload.compressed = true;
  payload.data = {1, 2, 3};
  auto bytes = payload.serialize();
  bytes[0] = 0x02;
  EXPECT_THROW(SignalUploadPayload::deserialize(bytes), std::runtime_error);
  bytes[0] = 0x01;
  EXPECT_TRUE(SignalUploadPayload::deserialize(bytes).compressed);
}

TEST(Messages, AuthDecisionPayloadFlagAboveOneRejected) {
  AuthDecisionPayload payload;
  payload.authenticated = false;
  payload.user_id = "bob";
  auto bytes = payload.serialize();
  bytes[0] = 0x7F;
  EXPECT_THROW(AuthDecisionPayload::deserialize(bytes), std::runtime_error);
  bytes[0] = 0x00;
  EXPECT_FALSE(AuthDecisionPayload::deserialize(bytes).authenticated);
}

TEST(Messages, AuthPassPayloadTrailingBytesRejected) {
  AuthPassPayload pass;
  pass.upload.data = {4, 5, 6};
  pass.volume_ul = 0.75;
  auto bytes = pass.serialize();
  bytes.push_back(0xFF);
  EXPECT_THROW(AuthPassPayload::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(AuthPassPayload::deserialize(bytes));
}

TEST(Messages, AuthPassPayloadTruncatedThrows) {
  AuthPassPayload pass;
  pass.upload.data = {4, 5, 6};
  const auto bytes = pass.serialize();
  const std::span<const std::uint8_t> cut(bytes.data(), bytes.size() - 1);
  EXPECT_THROW(AuthPassPayload::deserialize(cut), std::out_of_range);
}

TEST(Messages, AuthDecisionPayloadTrailingBytesRejected) {
  AuthDecisionPayload payload;
  payload.user_id = "alice";
  auto bytes = payload.serialize();
  bytes.push_back(0x01);
  EXPECT_THROW(AuthDecisionPayload::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(AuthDecisionPayload::deserialize(bytes));
}

TEST(Messages, ErrorPayloadTrailingBytesRejected) {
  ErrorPayload error;
  error.detail = "rejected";
  auto bytes = error.serialize();
  bytes.push_back(0x42);
  EXPECT_THROW(ErrorPayload::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(ErrorPayload::deserialize(bytes));
}

TEST(Messages, AuthChallengePayloadTrailingBytesRejected) {
  AuthChallengePayload payload;
  payload.key_epoch = 1;
  auto bytes = payload.serialize();
  bytes.push_back(0x99);
  EXPECT_THROW(AuthChallengePayload::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(AuthChallengePayload::deserialize(bytes));
}

TEST(Messages, AuthChallengePayloadTruncatedThrows) {
  AuthChallengePayload payload;
  const auto bytes = payload.serialize();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::span<const std::uint8_t> cut(bytes.data(), n);
    EXPECT_ANY_THROW(AuthChallengePayload::deserialize(cut))
        << "prefix of " << n << " bytes";
  }
}

TEST(Messages, AuthResponsePayloadTrailingBytesRejected) {
  AuthResponsePayload payload;
  auto bytes = payload.serialize();
  bytes.push_back(0x77);
  EXPECT_THROW(AuthResponsePayload::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(AuthResponsePayload::deserialize(bytes));
}

TEST(Messages, AuthResponsePayloadTruncatedThrows) {
  AuthResponsePayload payload;
  const auto bytes = payload.serialize();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::span<const std::uint8_t> cut(bytes.data(), n);
    EXPECT_ANY_THROW(AuthResponsePayload::deserialize(cut))
        << "prefix of " << n << " bytes";
  }
}

TEST(Messages, SeriesTrailingBytesRejected) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5e5};
  series.channels.emplace_back(450.0, std::vector<double>{1.0, 2.0}, 0.0);
  auto bytes = serialize_series(series);
  bytes.push_back(0x00);
  EXPECT_THROW(deserialize_series(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(deserialize_series(bytes));
}

TEST(Messages, SeriesHostileChannelCountRejectedBeforeAllocation) {
  // A 4-byte body declaring 2^32-1 channels must be rejected up front
  // (count_u32), not trusted as a reserve() size.
  const std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(deserialize_series(bytes), std::out_of_range);
}

TEST(Messages, SeriesHostileSampleCountRejectedBeforeAllocation) {
  util::ByteWriter w;
  w.u32(1);       // one channel
  w.f64(5e5);     // carrier
  w.f64(450.0);   // rate
  w.f64(0.0);     // start
  w.u32(0xFFFFFFFF);  // 2^32-1 samples, no bytes behind it
  EXPECT_THROW(deserialize_series(w.data()), std::out_of_range);
}

TEST(Messages, BitFlippedUploadStillDecodesOrThrows) {
  // Bit flips inside the envelope body are caught by the MAC; flips
  // inside a payload must never crash the decoder — they either decode
  // to different field values or throw one of the two structured types.
  SignalUploadPayload payload;
  payload.compressed = true;
  payload.sample_rate_hz = 450.0;
  payload.data = {10, 20, 30, 40};
  const auto bytes = payload.serialize();
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupted = bytes;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      (void)SignalUploadPayload::deserialize(corrupted);
    } catch (const std::out_of_range&) {
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace medsen::net
