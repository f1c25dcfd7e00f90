// Exactly one response per (device, session, counter), under races.
//
// Two barrier-started threads send the same (device, session, counter)
// at the same instant, round after round. The server must reserve the
// slot before either handler runs, so the pair is processed at most
// once: a conflicting payload is refused as kSessionConflict, and a
// byte-identical duplicate is either answered from the completed slot
// or told to retry (kOverloaded) while the first is still in flight.
// These are the TSan targets for the reservation path (label `cloud`).

#include <gtest/gtest.h>

#include <barrier>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "cloud/server.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevice = 7;
constexpr int kRounds = 400;

std::vector<std::uint8_t> master_key() {
  return std::vector<std::uint8_t>(16, 0x5a);
}

CloudServer make_server() {
  AnalysisConfig analysis;
  analysis.threads = 1;
  return CloudServer(analysis, auth::CytoAlphabet{},
                     auth::ParticleClassifier::train({}),
                     auth::VerifierConfig{}, nullptr, ServiceConfig{});
}

util::MultiChannelSeries dip_series(std::size_t dips) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  const std::size_t n = 900 + dips * 450;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (std::size_t d = 0; d < dips; ++d) {
      const double z = (t - (1.0 + 0.5 * static_cast<double>(d))) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

net::Envelope upload(const util::MultiChannelSeries& series,
                     std::uint64_t session, std::span<const std::uint8_t> key,
                     std::uint32_t counter) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(series);
  return net::make_envelope(net::MessageType::kSignalUpload, session, kDevice,
                            payload.serialize(), key, counter);
}

net::ErrorCode error_code(const net::Envelope& response) {
  return net::ErrorPayload::deserialize(response.payload).code;
}

/// Runs `rounds` rounds of two threads released together by a barrier;
/// `prepare(round)` runs on this thread before each release, `send(t)`
/// on worker t, and `check(round)` here once both sends returned.
void race(int rounds, const std::function<void(int)>& prepare,
          const std::function<void(int)>& send,
          const std::function<void(int)>& check) {
  std::barrier sync(3);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < rounds; ++round) {
        sync.arrive_and_wait();  // released together
        send(t);
        sync.arrive_and_wait();  // both done
      }
    });
  }
  for (int round = 0; round < rounds; ++round) {
    prepare(round);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    check(round);
  }
  for (auto& worker : workers) worker.join();
}

TEST(ExactlyOnce, ConcurrentConflictingCommandsAreProcessedOnce) {
  auto server = make_server();
  server.rotate_master_key(1, master_key());
  server.enroll_device(kDevice);
  core::SessionCrypto crypto(
      kDevice, crypto::diversify_device_key(master_key(), kDevice, 1), 1, 42);
  ASSERT_TRUE(crypto.complete(server.handle(crypto.make_challenge(100))));
  const auto key = crypto.session_mac_key();
  const std::uint64_t processed_before = server.stats().requests_processed;

  const std::vector<util::MultiChannelSeries> payloads = {dip_series(1),
                                                          dip_series(2)};
  std::vector<net::Envelope> requests(2);
  std::vector<net::Envelope> responses(2);
  int double_processed = 0;
  int other_outcomes = 0;
  race(
      kRounds,
      [&](int round) {
        const auto counter = static_cast<std::uint32_t>(round + 1);
        for (std::size_t t = 0; t < 2; ++t)
          requests[t] = upload(payloads[t], 100, key, counter);
      },
      [&](int t) {
        responses[static_cast<std::size_t>(t)] =
            server.handle(requests[static_cast<std::size_t>(t)]);
      },
      [&](int) {
        int analyzed = 0;
        int conflicts = 0;
        for (const auto& response : responses) {
          if (response.type == net::MessageType::kAnalysisResult)
            ++analyzed;
          else if (response.type == net::MessageType::kError &&
                   error_code(response) == net::ErrorCode::kSessionConflict)
            ++conflicts;
        }
        if (analyzed > 1) ++double_processed;
        if (analyzed != 1 || conflicts != 1) ++other_outcomes;
      });

  EXPECT_EQ(double_processed, 0);
  EXPECT_EQ(other_outcomes, 0);
  EXPECT_EQ(server.stats().requests_processed - processed_before,
            static_cast<std::uint64_t>(kRounds));
}

TEST(ExactlyOnce, ConcurrentIdenticalHandshakesEstablishOneSession) {
  auto server = make_server();
  server.rotate_master_key(1, master_key());
  server.enroll_device(kDevice);
  core::SessionCrypto crypto(
      kDevice, crypto::diversify_device_key(master_key(), kDevice, 1), 1, 42);
  const auto series = dip_series(1);

  net::Envelope challenge;
  std::vector<net::Envelope> responses(2);
  std::uint64_t handshakes_before = 0;
  int extra_handshakes = 0;
  int unusable_sessions = 0;
  race(
      kRounds,
      [&](int round) {
        challenge = crypto.make_challenge(static_cast<std::uint64_t>(round));
        handshakes_before = server.stats().handshakes_completed;
      },
      [&](int t) {
        responses[static_cast<std::size_t>(t)] = server.handle(challenge);
      },
      [&](int round) {
        const std::uint64_t handshakes =
            server.stats().handshakes_completed - handshakes_before;
        if (handshakes != 1) ++extra_handshakes;
        // The client takes the first thread's answer, retrying while the
        // other copy is still in flight.
        auto answer = responses[0];
        for (int retry = 0; retry < 100 &&
                            answer.type == net::MessageType::kError &&
                            error_code(answer) == net::ErrorCode::kOverloaded;
             ++retry)
          answer = server.handle(challenge);
        if (!crypto.complete(answer)) {
          ++unusable_sessions;
          return;
        }
        const auto response =
            server.handle(upload(series, static_cast<std::uint64_t>(round),
                                 crypto.session_mac_key(),
                                 crypto.next_counter()));
        if (response.type != net::MessageType::kAnalysisResult)
          ++unusable_sessions;
      });

  EXPECT_EQ(extra_handshakes, 0);
  EXPECT_EQ(unusable_sessions, 0);
  EXPECT_EQ(server.stats().handshakes_completed,
            static_cast<std::uint64_t>(kRounds));
}

}  // namespace
}  // namespace medsen::cloud
