// Failure injection across module boundaries: corrupted frames, truncated
// envelopes, compression bombs of garbage, mismatched sessions — the
// pipeline must fail loudly, never silently decode garbage. At the cloud
// service boundary "loudly" means a structured kError envelope; inside a
// module it means an exception.

#include <gtest/gtest.h>

#include "cloud/server.h"
#include "compress/codec.h"
#include "core/controller.h"
#include "crypto/chacha20.h"
#include "net/frame.h"
#include "net/messages.h"
#include "test_devices.h"

namespace medsen {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);

TEST(FailureInjection, RandomBytesNeverDecodeAsFrame) {
  crypto::ChaChaRng rng(404);
  int surprises = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> junk(20 + rng.uniform(200));
    rng.fill(junk);
    try {
      (void)net::frame_decode(junk);
      ++surprises;  // would need magic + length + CRC to all line up
    } catch (const std::exception&) {
    }
  }
  EXPECT_EQ(surprises, 0);
}

TEST(FailureInjection, RandomBytesNeverDecompress) {
  crypto::ChaChaRng rng(405);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> junk(50 + rng.uniform(500));
    rng.fill(junk);
    EXPECT_THROW((void)compress::decompress(junk), std::exception);
  }
}

TEST(FailureInjection, BitflippedCompressedDataDetected) {
  crypto::ChaChaRng rng(406);
  std::string csv;
  for (int i = 0; i < 500; ++i)
    csv += std::to_string(i) + ",0.99" + std::to_string(rng.uniform(100)) +
           "\n";
  const auto packed = compress::compress_string(csv);
  int undetected = 0;
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = packed;
    const std::size_t pos = rng.uniform(static_cast<std::uint32_t>(
        corrupted.size()));
    corrupted[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    try {
      const auto out = compress::decompress(corrupted);
      if (std::string(out.begin(), out.end()) != csv) ++undetected;
    } catch (const std::exception&) {
    }
  }
  EXPECT_EQ(undetected, 0);
}

TEST(FailureInjection, GarbageUploadPayloadRejected) {
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  testkit::enroll(server, 1);
  crypto::ChaChaRng rng(407);
  std::vector<std::uint8_t> junk(300);
  rng.fill(junk);
  const auto envelope = net::make_envelope(net::MessageType::kSignalUpload,
                                           1, 1, std::move(junk), kMacKey);
  // MAC passes (attacker owns the junk) but the decoder throw must be
  // converted to a malformed error at the service boundary, never escape.
  const auto response = server.handle(envelope);
  ASSERT_EQ(response.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(response.payload).code,
            net::ErrorCode::kMalformed);
}

TEST(FailureInjection, CompressedFlagOnUncompressedDataRejected) {
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  testkit::enroll(server, 1);
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(100, 1.0));
  net::SignalUploadPayload payload;
  payload.compressed = true;  // lie: data is raw
  payload.data = net::serialize_series(series);
  const auto envelope = net::make_envelope(net::MessageType::kSignalUpload,
                                           1, 1, payload.serialize(), kMacKey);
  const auto response = server.handle(envelope);
  ASSERT_EQ(response.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(response.payload).code,
            net::ErrorCode::kMalformed);
}

TEST(FailureInjection, KeyScheduleDeserializeRejectsTruncation) {
  core::KeyParams params;
  params.num_electrodes = 9;
  crypto::ChaChaRng rng(408);
  const auto schedule = core::KeySchedule::generate(params, 10.0, rng);
  const auto bytes = schedule.serialize();
  for (std::size_t cut : {std::size_t{1}, bytes.size() / 2,
                          bytes.size() - 1}) {
    const std::span<const std::uint8_t> truncated(bytes.data(), cut);
    EXPECT_THROW((void)core::KeySchedule::deserialize(truncated),
                 std::exception);
  }
}

TEST(FailureInjection, ControllerSurvivesEmptyChannelsReport) {
  core::KeyParams params;
  params.num_electrodes = 9;
  core::Controller controller(params, sim::standard_design(9),
                              core::DiagnosticProfile::cd4_staging(), 1);
  (void)controller.begin_session(10.0);
  core::PeakReport report;  // no channels at all
  EXPECT_THROW(controller.conclude(report), std::logic_error);
}

}  // namespace
}  // namespace medsen
