#include "cloud/server.h"

#include "compress/codec.h"
#include "test_devices.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>

namespace medsen::cloud {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);
constexpr std::uint64_t kDevice = 1;

CloudServer make_server(ServiceConfig service = {}) {
  return CloudServer(AnalysisConfig{}, auth::CytoAlphabet{},
                     auth::ParticleClassifier::train({}),
                     auth::VerifierConfig{}, nullptr, service);
}

util::MultiChannelSeries dip_series(std::size_t dips) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  const std::size_t n = 4500 + dips * 450;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (std::size_t d = 0; d < dips; ++d) {
      const double z = (t - (5.0 + static_cast<double>(d))) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    // A grain of quantized (ADC-like) noise so the quality gate's
    // stuck-ADC detector sees a live signal while the samples stay
    // compressible.
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

// A flat-lined acquisition pinned outside the plausible range: the gate
// flags it as saturated (the first check that fires).
util::MultiChannelSeries saturated_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(5000, 2.5));
  return series;
}

// In-range but stuck at a constant value: a dead ADC, not clipping.
util::MultiChannelSeries dropout_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(5000, 1.0));
  return series;
}

// A live signal whose baseline wanders beyond the drift budget.
util::MultiChannelSeries drifting_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 5000; ++i) {
    double v = 0.9 + 0.45 * static_cast<double>(i) / 5000.0;
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

net::Envelope upload_of(const util::MultiChannelSeries& series,
                        std::uint64_t session,
                        std::uint64_t device = kDevice,
                        std::span<const std::uint8_t> key = kMacKey) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(series);
  return net::make_envelope(net::MessageType::kSignalUpload, session, device,
                            payload.serialize(), key);
}

net::Envelope auth_of(const util::MultiChannelSeries& series,
                      std::uint64_t session, double volume_ul,
                      double duration_s = 0.0) {
  net::AuthPassPayload pass;
  pass.upload.compressed = false;
  pass.upload.sample_rate_hz = 450.0;
  pass.upload.data = net::serialize_series(series);
  pass.volume_ul = volume_ul;
  pass.duration_s = duration_s;
  return net::make_envelope(net::MessageType::kAuthPass, session, kDevice,
                            pass.serialize(), kMacKey);
}

net::ErrorPayload expect_error(const net::Envelope& response,
                               net::ErrorCode code) {
  EXPECT_EQ(response.type, net::MessageType::kError);
  const auto error = net::ErrorPayload::deserialize(response.payload);
  EXPECT_EQ(error.code, code) << "detail: " << error.detail;
  return error;
}

TEST(CloudServer, HandleUploadReturnsReport) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto response = server.handle(upload_of(dip_series(3), 5));
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(response.session_id, 5u);
  EXPECT_EQ(response.device_id, kDevice);
  EXPECT_TRUE(net::verify_envelope(response, kMacKey));
  const auto report = core::PeakReport::deserialize(response.payload);
  EXPECT_EQ(report.reference_peak_count(), 3u);
}

TEST(CloudServer, UnknownDeviceGetsError) {
  auto server = make_server();
  // Nothing provisioned: the request is refused before MAC verification
  // (the server has no key to check against), and the error is unsigned
  // — the server holds no credential for the unknown sender.
  const auto response = server.handle(upload_of(dip_series(1), 1));
  const auto error =
      expect_error(response, net::ErrorCode::kUnknownDevice);
  EXPECT_NE(error.detail.find("not provisioned"), std::string::npos);
  EXPECT_TRUE(net::verify_envelope(response, {}));
}

TEST(CloudServer, BadMacGetsError) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  auto upload = upload_of(dip_series(1), 1);
  upload.payload[0] ^= 0xFF;
  const auto response = server.handle(upload);
  expect_error(response, net::ErrorCode::kBadMac);
  EXPECT_TRUE(net::verify_envelope(response, kMacKey));
}

TEST(CloudServer, WrongDeviceKeyGetsBadMacError) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  testkit::enroll(server, 2);
  // Device 2 signing with device 1's key: the registry key wins.
  const auto response =
      server.handle(upload_of(dip_series(1), 1, 2, kMacKey));
  expect_error(response, net::ErrorCode::kBadMac);
}

TEST(CloudServer, UnroutableTypeGetsMalformedError) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto envelope = net::make_envelope(net::MessageType::kProgress, 1,
                                           kDevice, {}, kMacKey);
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, UndecodablePayloadGetsMalformedError) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  // A correctly MAC'd envelope whose payload is garbage: the decoder
  // throw must be converted at the dispatch boundary, not escape.
  const auto envelope = net::make_envelope(
      net::MessageType::kSignalUpload, 1, kDevice, {0xDE, 0xAD}, kMacKey);
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, TruncatedPayloadGetsMalformedError) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  net::SignalUploadPayload payload;
  payload.data = net::serialize_series(dip_series(1));
  auto bytes = payload.serialize();
  bytes.resize(bytes.size() / 2);  // cut mid-payload, then re-MAC
  const auto envelope = net::make_envelope(net::MessageType::kSignalUpload, 3,
                                           kDevice, std::move(bytes), kMacKey);
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, TrailingPayloadBytesGetMalformedError) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  net::SignalUploadPayload payload;
  payload.data = net::serialize_series(dip_series(1));
  auto bytes = payload.serialize();
  bytes.push_back(0x00);  // strict decoders refuse appended garbage
  const auto envelope = net::make_envelope(net::MessageType::kSignalUpload, 4,
                                           kDevice, std::move(bytes), kMacKey);
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, BitFlippedPayloadNeverEscapesAsException) {
  // Re-MAC a bit-flipped payload (a hostile relay could do the same with
  // a stolen key): whatever the decoder makes of it, the service
  // boundary must answer with an envelope, not throw.
  auto server = make_server();
  testkit::enroll(server, kDevice);
  net::SignalUploadPayload payload;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(dip_series(1));
  const auto bytes = payload.serialize();
  for (std::size_t bit = 0; bit < 64; ++bit) {
    auto corrupted = bytes;
    corrupted[(bit * 131) % corrupted.size()] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    const auto envelope =
        net::make_envelope(net::MessageType::kSignalUpload, 100 + bit,
                           kDevice, std::move(corrupted), kMacKey);
    net::Envelope response;
    EXPECT_NO_THROW(response = server.handle(envelope)) << "bit " << bit;
  }
}

TEST(CloudServer, HostileSeriesCountGetsMalformedError) {
  // A payload declaring 2^32-1 channels must be shot down by the decoder
  // bounds check and surface as kMalformed — not as an OOM.
  auto server = make_server();
  testkit::enroll(server, kDevice);
  net::SignalUploadPayload payload;
  payload.data = {0xFF, 0xFF, 0xFF, 0xFF};
  const auto envelope =
      net::make_envelope(net::MessageType::kSignalUpload, 6, kDevice,
                         payload.serialize(), kMacKey);
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, CompressedUploadAccepted) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto series = dip_series(2);
  net::SignalUploadPayload payload;
  payload.compressed = true;
  payload.sample_rate_hz = 450.0;
  payload.data = compress::compress(net::serialize_series(series));
  const auto upload = net::make_envelope(net::MessageType::kSignalUpload, 9,
                                         kDevice, payload.serialize(),
                                         kMacKey);
  const auto response = server.handle(upload);
  const auto report = core::PeakReport::deserialize(response.payload);
  EXPECT_EQ(report.reference_peak_count(), 2u);
}

TEST(CloudServer, QualityRejectionsCarryDistinctReasons) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto saturated =
      expect_error(server.handle(upload_of(saturated_series(), 1)),
                   net::ErrorCode::kQualityRejected);
  EXPECT_EQ(saturated.subcode,
            static_cast<std::uint8_t>(QualityReason::kSaturated));
  const auto dropout =
      expect_error(server.handle(upload_of(dropout_series(), 2)),
                   net::ErrorCode::kQualityRejected);
  EXPECT_EQ(dropout.subcode,
            static_cast<std::uint8_t>(QualityReason::kDropout));
  const auto drift =
      expect_error(server.handle(upload_of(drifting_series(), 3)),
                   net::ErrorCode::kQualityRejected);
  EXPECT_EQ(drift.subcode,
            static_cast<std::uint8_t>(QualityReason::kDrift));
  // Three distinct structured reasons reached the client.
  EXPECT_NE(saturated.subcode, dropout.subcode);
  EXPECT_NE(dropout.subcode, drift.subcode);
  EXPECT_EQ(server.stats().errors_returned, 3u);
}

TEST(CloudServer, NonFiniteSamplesFailTheGateAsSaturated) {
  // NaN fails every range comparison, and detrend flattens a NaN's whole
  // window, so a NaN-laced upload used to pass the gate and come back as
  // a normal (wrong) analysis. One NaN is enough to reject the channel.
  auto server = make_server();
  testkit::enroll(server, kDevice);
  std::uint64_t session = 1;
  for (const std::size_t every : {std::size_t{0}, std::size_t{1800}}) {
    auto series = dip_series(3);
    auto& samples = series.channels[0];
    if (every == 0) {
      samples[samples.size() / 2] = std::nan("");
    } else {
      for (std::size_t i = every; i < samples.size(); i += every)
        samples[i] = std::nan("");
    }
    const auto error =
        expect_error(server.handle(upload_of(series, session++)),
                     net::ErrorCode::kQualityRejected);
    EXPECT_EQ(error.subcode,
              static_cast<std::uint8_t>(QualityReason::kSaturated));
    ASSERT_EQ(error.channel_reasons.size(), 1u);
    EXPECT_NE(error.channel_reasons[0] &
                  (1u << static_cast<unsigned>(QualityReason::kSaturated)),
              0u);
  }
}

TEST(CloudServer, NonFiniteChannelHeaderIsMalformed) {
  // Both series decoders used to refuse only a rate <= 0, so an upload
  // whose rate was NaN came back as a normal analysis with NaN peak
  // times. A NaN or infinite carrier, rate or start time is malformed,
  // raw or MSP1.
  auto server = make_server();
  testkit::enroll(server, kDevice);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uint64_t session = 1;
  for (const bool packed : {false, true}) {
    net::SignalUploadPayload payload;
    payload.compressed = packed;
    payload.sample_rate_hz = 450.0;
    payload.data = packed ? net::pack_series(dip_series(3))
                          : net::serialize_series(dip_series(3));
    const auto ok = server.handle(
        net::make_envelope(net::MessageType::kSignalUpload, session++,
                           kDevice, payload.serialize(), kMacKey));
    ASSERT_EQ(ok.type, net::MessageType::kAnalysisResult);
    // Channel 0's carrier, rate and start time follow the channel count
    // (and, in MSP1, the magic).
    const std::size_t first = packed ? 8 : 4;
    for (std::size_t field = 0; field < 3; ++field)
      for (const double bad :
           {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
        net::SignalUploadPayload patched = payload;
        const auto bits = std::bit_cast<std::uint64_t>(bad);
        for (std::size_t b = 0; b < 8; ++b)
          patched.data[first + 8 * field + b] =
              static_cast<std::uint8_t>(bits >> (8 * b));
        const auto error = expect_error(
            server.handle(net::make_envelope(
                net::MessageType::kSignalUpload, session++, kDevice,
                patched.serialize(), kMacKey)),
            net::ErrorCode::kMalformed);
        EXPECT_FALSE(error.detail.empty())
            << "packed " << packed << " field " << field << " value " << bad;
      }
  }
}

TEST(CloudServer, QualityGateTogglable) {
  auto gated = make_server();
  testkit::enroll(gated, kDevice);
  expect_error(gated.handle(upload_of(saturated_series(), 1)),
               net::ErrorCode::kQualityRejected);
  ServiceConfig ungated_config;
  ungated_config.quality_gate = false;
  auto ungated = make_server(ungated_config);
  testkit::enroll(ungated, kDevice);
  const auto response = ungated.handle(upload_of(saturated_series(), 2));
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
}

TEST(CloudServer, DuplicateUploadServedFromCacheNotReanalyzed) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto upload = upload_of(dip_series(3), 5);
  const auto first = server.handle(upload);
  EXPECT_EQ(server.stats().requests_processed, 1u);

  // The reliable transport re-uploads when the response is lost; the
  // replay must return the identical envelope without a second analysis.
  const auto second = server.handle(upload);
  EXPECT_EQ(server.stats().requests_processed, 1u);
  EXPECT_EQ(server.stats().replays_served, 1u);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_TRUE(crypto::digest_equal(second.mac, first.mac));
}

TEST(CloudServer, SessionReplayWithDifferentPayloadRejected) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  (void)server.handle(upload_of(dip_series(3), 5));
  // Same session_id, different acquisition: a protocol violation, not a
  // transport retry.
  expect_error(server.handle(upload_of(dip_series(2), 5)),
               net::ErrorCode::kSessionConflict);
  EXPECT_EQ(server.stats().requests_processed, 1u);
}

TEST(CloudServer, DuplicateAuthServedFromCache) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto upload = auth_of(dip_series(2), 3, 1.0);
  const auto first = server.handle(upload);
  const auto second = server.handle(upload);
  EXPECT_EQ(first.type, net::MessageType::kAuthDecision);
  EXPECT_EQ(server.stats().requests_processed, 1u);
  EXPECT_EQ(server.stats().replays_served, 1u);
  EXPECT_EQ(second.payload, first.payload);
}

TEST(CloudServer, RejectedUploadIsNotCached) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  const auto upload = upload_of(saturated_series(), 8);
  expect_error(server.handle(upload), net::ErrorCode::kQualityRejected);
  EXPECT_EQ(server.stats().requests_processed, 0u);
  // A retransmit of the rejected upload runs the gate again instead of
  // replaying the failure...
  expect_error(server.handle(upload), net::ErrorCode::kQualityRejected);
  EXPECT_EQ(server.stats().replays_served, 0u);
  // ...and a clean re-acquisition under the same session is processed,
  // not refused as a replay with a different payload.
  const auto response = server.handle(upload_of(dip_series(1), 8));
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(server.stats().requests_processed, 1u);
  EXPECT_EQ(server.stats().replays_served, 0u);
}

TEST(CloudServer, AdmissionLimitShedsWithOverloadedError) {
  auto server = make_server({/*quality_gate=*/true, /*max_inflight=*/2});
  testkit::enroll(server, kDevice);
  // Fill the admission gate from the outside so the shed is
  // deterministic, no timing games needed.
  auto slot1 = server.admission().try_enter();
  auto slot2 = server.admission().try_enter();
  ASSERT_TRUE(slot1.admitted());
  ASSERT_TRUE(slot2.admitted());

  const auto response = server.handle(upload_of(dip_series(1), 1));
  expect_error(response, net::ErrorCode::kOverloaded);
  EXPECT_TRUE(net::verify_envelope(response, kMacKey));
  EXPECT_EQ(server.stats().requests_shed, 1u);

  slot1.release();
  const auto retried = server.handle(upload_of(dip_series(1), 2));
  EXPECT_EQ(retried.type, net::MessageType::kAnalysisResult);
}

TEST(CloudServer, MultiTenantSessionsAreIsolated) {
  auto server = make_server();
  const auto key_a = testkit::enroll(server, 1);
  const auto key_b = testkit::enroll(server, 2);
  // The same session_id on two devices must not collide in the cache.
  const auto a = server.handle(upload_of(dip_series(1), 7, 1, key_a));
  const auto b = server.handle(upload_of(dip_series(2), 7, 2, key_b));
  EXPECT_EQ(a.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(b.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(server.stats().requests_processed, 2u);
  EXPECT_EQ(server.stats().replays_served, 0u);
  EXPECT_EQ(core::PeakReport::deserialize(a.payload).reference_peak_count(),
            1u);
  EXPECT_EQ(core::PeakReport::deserialize(b.payload).reference_peak_count(),
            2u);
}

TEST(CloudServer, DeviceRevocationTakesEffect) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  EXPECT_EQ(server.handle(upload_of(dip_series(1), 1)).type,
            net::MessageType::kAnalysisResult);
  server.devices().revoke(kDevice);
  expect_error(server.handle(upload_of(dip_series(1), 2)),
               net::ErrorCode::kRevoked);
}

// The TSan regression for the old racy `last_quality_` member: one
// server, several client threads, a mix of accepted and quality-rejected
// uploads in flight at once. Before the refactor the quality report was
// written to an unsynchronized member on every upload.
TEST(CloudServer, ConcurrentMixedUploadsAreRaceFree) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::thread> workers;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t session =
            100 + static_cast<std::uint64_t>(t * kPerThread + i);
        const bool bad = (t + i) % 2 == 0;
        const auto response = server.handle(
            bad ? upload_of(saturated_series(), session)
                : upload_of(dip_series(1), session));
        if (response.type == net::MessageType::kAnalysisResult)
          accepted.fetch_add(1);
        else if (net::ErrorPayload::deserialize(response.payload).code ==
                 net::ErrorCode::kQualityRejected)
          rejected.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(server.stats().requests_processed,
            static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(server.stats().errors_returned,
            static_cast<std::uint64_t>(rejected.load()));
}

TEST(CloudServer, RecordStoreAccessible) {
  auto server = make_server();
  auth::CytoCode code;
  code.levels = {1, 1};
  server.store_result(code, {1, {0xCC}});
  EXPECT_EQ(server.records().record_count(), 1u);
}

TEST(CloudServer, AuthDecisionForUnknownUserRejected) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  // No enrollments: any census must fail authentication.
  const auto response = server.handle(auth_of(dip_series(2), 3, 1.0));
  EXPECT_EQ(response.type, net::MessageType::kAuthDecision);
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  EXPECT_FALSE(decision.authenticated);
}

TEST(CloudServer, StatsAccumulateProcessingTime) {
  auto server = make_server();
  testkit::enroll(server, kDevice);
  (void)server.handle(upload_of(dip_series(1), 1));
  (void)server.handle(upload_of(dip_series(2), 2));
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_processed, 2u);
  EXPECT_EQ(stats.replays_served, 0u);
  EXPECT_EQ(stats.errors_returned, 0u);
}

}  // namespace
}  // namespace medsen::cloud
