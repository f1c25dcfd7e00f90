// End-to-end tests of the EV2-style session plane across the service
// boundary: AuthChallenge/AuthResponse handshakes, command counters,
// diversified keys (zero stored per-device secrets), rotation /
// revocation, and the registry body codec's round trip.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/persistence.h"
#include "cloud/server.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevice = 7;
constexpr std::uint64_t kSeed = 0x1234;

std::vector<std::uint8_t> master_key(std::uint8_t fill) {
  return std::vector<std::uint8_t>(16, fill);
}

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
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

net::Envelope upload_of(const util::MultiChannelSeries& series,
                        std::uint64_t session, std::uint64_t device,
                        std::span<const std::uint8_t> key,
                        std::uint32_t counter = 0) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(series);
  return net::make_envelope(net::MessageType::kSignalUpload, session, device,
                            payload.serialize(), key, counter);
}

net::ErrorPayload expect_error(const net::Envelope& response,
                               net::ErrorCode code) {
  EXPECT_EQ(response.type, net::MessageType::kError);
  const auto error = net::ErrorPayload::deserialize(response.payload);
  EXPECT_EQ(error.code, code) << "detail: " << error.detail;
  return error;
}

/// Run the device side of the handshake directly against handle().
bool handshake(core::SessionCrypto& crypto, std::uint64_t session,
               CloudServer& server) {
  return crypto.complete(server.handle(crypto.make_challenge(session)));
}

/// A server with one enrolled (diversified) device and the matching
/// device-side SessionCrypto, as personalization would burn it in.
struct DiversifiedRig {
  CloudServer server;
  core::SessionCrypto crypto;

  explicit DiversifiedRig(ServiceConfig service = {},
                          std::uint32_t epoch = 1)
      : server(make_server(service)),
        crypto(kDevice,
               crypto::diversify_device_key(master_key(0x5a), kDevice, epoch),
               epoch, kSeed) {
    server.rotate_master_key(epoch, master_key(0x5a));
    server.enroll_device(kDevice);
  }
};

TEST(SessionService, DiversifiedHandshakeEstablishesSession) {
  DiversifiedRig rig;
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  EXPECT_TRUE(rig.crypto.active());
  EXPECT_EQ(rig.server.devices().active_sessions(), 1u);
  EXPECT_EQ(rig.server.stats().handshakes_completed, 1u);

  // Both ends hold the same derived session key.
  const auto server_key = rig.server.devices().session_key(kDevice, 100);
  ASSERT_TRUE(server_key.has_value());
  EXPECT_EQ(*server_key, rig.crypto.session_mac_key());
}

TEST(SessionService, SessionCommandsRideDerivedKeyAndCounters) {
  DiversifiedRig rig;
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  const auto& session_key = rig.crypto.session_mac_key();

  const auto series = dip_series(2);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto response = rig.server.handle(upload_of(
        series, 100, kDevice, session_key, rig.crypto.next_counter()));
    ASSERT_EQ(response.type, net::MessageType::kAnalysisResult);
    EXPECT_EQ(response.counter, i + 1);
    EXPECT_TRUE(net::verify_envelope(response, session_key));
  }
}

// The diversification pitch, pinned: an enrolled-only fleet leaves the
// registry holding zero per-device secrets, and every device still
// authenticates via on-demand derivation.
TEST(SessionService, ZeroStoredPerDeviceSecretsPinned) {
  auto server = make_server();
  server.rotate_master_key(1, master_key(0x5a));
  for (std::uint64_t id = 1; id <= 32; ++id) server.enroll_device(id);

  // The registry's whole keying state is the one epoch master plus ids.
  const auto before = server.devices().snapshot();
  EXPECT_EQ(server.devices().size(), 32u);
  EXPECT_EQ(before.enrolled.size(), 32u);
  ASSERT_EQ(before.masters.size(), 1u);

  for (std::uint64_t id : {std::uint64_t{1}, std::uint64_t{17}}) {
    core::SessionCrypto crypto(
        id, crypto::diversify_device_key(master_key(0x5a), id, 1), 1,
        kSeed + id);
    EXPECT_TRUE(handshake(crypto, 1000 + id, server));
  }
  // Handshakes created sessions, not stored long-term secrets.
  EXPECT_EQ(server.devices().snapshot().masters, before.masters);
}

TEST(SessionService, SessionEnvelopeWithWrongKeyRejected) {
  DiversifiedRig rig;
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  const std::vector<std::uint8_t> wrong_key(32, 0xee);
  const auto response = rig.server.handle(
      upload_of(dip_series(1), 100, kDevice, wrong_key, 1));
  expect_error(response, net::ErrorCode::kBadMac);
}

TEST(SessionService, CounterWithoutSessionGetsAuthRequired) {
  DiversifiedRig rig;
  // No handshake ran: a counter-stamped envelope has no session key.
  const std::vector<std::uint8_t> some_key(32, 0x11);
  const auto response = rig.server.handle(
      upload_of(dip_series(1), 100, kDevice, some_key, 1));
  expect_error(response, net::ErrorCode::kAuthRequired);
}

// The acceptance pin: a replayed session envelope is rejected with
// kStaleCounter even after the idempotency cache evicted the original
// exchange — the anti-replay window, not the cache, is the backstop.
TEST(SessionService, ReplayRejectedAfterCacheEvictionPinned) {
  ServiceConfig service;
  service.shards = 1;  // one cache shard so the flood evicts the victim
  service.session_cache_capacity = 4;
  DiversifiedRig rig(service);
  rig.server.enroll_device(2);  // the cache-flooding tenant

  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  const auto& session_key = rig.crypto.session_mac_key();
  const auto command = upload_of(dip_series(1), 100, kDevice, session_key,
                                 rig.crypto.next_counter());
  ASSERT_EQ(rig.server.handle(command).type,
            net::MessageType::kAnalysisResult);

  // While cached, the byte-identical retransmit is served idempotently.
  EXPECT_EQ(rig.server.handle(command).type,
            net::MessageType::kAnalysisResult);
  EXPECT_EQ(rig.server.stats().replays_served, 1u);

  // Flood the 4-slot cache from another device until the exchange is
  // evicted...
  const auto series = dip_series(1);
  const auto other_key = crypto::diversify_device_key(master_key(0x5a), 2, 1);
  for (std::uint64_t s = 1; s <= 8; ++s)
    rig.server.handle(upload_of(series, 500 + s, 2, other_key));

  // ...then replay. The cache can no longer answer, but the counter
  // window still knows counter 1 was burned.
  const auto replayed = rig.server.handle(command);
  expect_error(replayed, net::ErrorCode::kStaleCounter);
  EXPECT_GE(rig.server.stats().counter_rejections, 1u);
}

TEST(SessionService, StaleCounterBelowWindowRejected) {
  DiversifiedRig rig;
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  const auto& session_key = rig.crypto.session_mac_key();

  // Advance the window far past the floor with a high counter...
  const auto series = dip_series(1);
  ASSERT_EQ(rig.server
                .handle(upload_of(series, 100, kDevice, session_key, 200))
                .type,
            net::MessageType::kAnalysisResult);
  // ...then present an ancient counter: below the 64-wide window.
  const auto response =
      rig.server.handle(upload_of(series, 100, kDevice, session_key, 3));
  expect_error(response, net::ErrorCode::kStaleCounter);
}

TEST(SessionService, RevokedDeviceRefusedOnEveryPlane) {
  DiversifiedRig rig;
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  const auto session_key = rig.crypto.session_mac_key();

  ASSERT_TRUE(rig.server.revoke_device(kDevice));

  // Session commands, counter-0 commands under the long-term key and
  // fresh handshakes all come back kRevoked.
  expect_error(
      rig.server.handle(upload_of(dip_series(1), 100, kDevice, session_key, 1)),
      net::ErrorCode::kRevoked);
  const auto longterm =
      crypto::diversify_device_key(master_key(0x5a), kDevice, 1);
  expect_error(
      rig.server.handle(upload_of(dip_series(1), 200, kDevice, longterm)),
      net::ErrorCode::kRevoked);
  rig.crypto.invalidate();
  expect_error(rig.server.handle(rig.crypto.make_challenge(101)),
               net::ErrorCode::kRevoked);

  // Re-enrollment clears revocation.
  rig.server.enroll_device(kDevice);
  EXPECT_TRUE(handshake(rig.crypto, 102, rig.server));
}

TEST(SessionService, MasterRotationForcesRehandshakeWithGraceWindow) {
  DiversifiedRig rig;  // personalized under epoch 1
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  const auto session_key = rig.crypto.session_mac_key();

  // New epoch: the fleet's sessions drop...
  rig.server.rotate_master_key(2, master_key(0xc3));
  expect_error(
      rig.server.handle(upload_of(dip_series(1), 100, kDevice, session_key, 1)),
      net::ErrorCode::kAuthRequired);

  // ...but the device, still personalized under epoch 1, re-handshakes
  // through the grace window (old masters derive until retired).
  rig.crypto.invalidate();
  ASSERT_TRUE(handshake(rig.crypto, 101, rig.server));
  EXPECT_EQ(rig.server.handle(upload_of(dip_series(1), 101, kDevice,
                                        rig.crypto.session_mac_key(),
                                        rig.crypto.next_counter()))
                .type,
            net::MessageType::kAnalysisResult);

  // Retiring epoch 1 closes the window: the old personalization is dead.
  ASSERT_TRUE(rig.server.devices().retire_epoch(1));
  rig.server.devices().drop_sessions();
  rig.crypto.invalidate();
  expect_error(rig.server.handle(rig.crypto.make_challenge(102)),
               net::ErrorCode::kBadEpoch);
}

TEST(SessionService, LegacyPlaneCanBeDisabled) {
  ServiceConfig service;
  service.allow_legacy_plane = false;
  DiversifiedRig rig(service);

  // Counter-0 command traffic is refused even under the device's valid
  // long-term key...
  const auto longterm =
      crypto::diversify_device_key(master_key(0x5a), kDevice, 1);
  expect_error(
      rig.server.handle(upload_of(dip_series(1), 50, kDevice, longterm)),
      net::ErrorCode::kAuthRequired);

  // ...but the handshake still rides counter 0, and session commands
  // flow afterwards.
  ASSERT_TRUE(handshake(rig.crypto, 100, rig.server));
  EXPECT_EQ(rig.server.handle(upload_of(dip_series(1), 100, kDevice,
                                        rig.crypto.session_mac_key(),
                                        rig.crypto.next_counter()))
                .type,
            net::MessageType::kAnalysisResult);
}

TEST(SessionService, HandshakeRetransmitServedFromCache) {
  DiversifiedRig rig;
  const auto challenge = rig.crypto.make_challenge(100);
  const auto first = rig.server.handle(challenge);
  ASSERT_EQ(first.type, net::MessageType::kAuthResponse);

  // A byte-identical ARQ retransmit must return the same response, not
  // run a second handshake (which would re-key the session under the
  // device's feet).
  const auto second = rig.server.handle(challenge);
  EXPECT_EQ(first.serialize(), second.serialize());
  EXPECT_EQ(rig.server.stats().handshakes_completed, 1u);
  ASSERT_TRUE(rig.crypto.complete(second));
}

// RndB freshness rests on one server-wide handshake ordinal. The same
// device replaying the same RndA must get a new RndB every time: plainly,
// after revocation and re-enrollment, after a master rotation, and while
// other devices hand-shake on other threads.
TEST(SessionService, FixedRndAAlwaysGetsFreshRndB) {
  using Nonce = std::array<std::uint8_t, net::AuthResponsePayload::kNonceSize>;
  DiversifiedRig rig;
  const auto device_key =
      crypto::diversify_device_key(master_key(0x5a), kDevice, 1);
  const auto first_rnd_a = net::AuthChallengePayload::deserialize(
                               rig.crypto.make_challenge(1).payload)
                               .challenge;
  std::uint64_t next_session = 100;
  std::set<Nonce> seen;
  const auto expect_fresh = [&](const char* when) {
    // A fresh SessionCrypto with the rig's seed draws the same RndA.
    core::SessionCrypto crypto(kDevice, device_key, 1, kSeed);
    const auto challenge = crypto.make_challenge(next_session++);
    ASSERT_EQ(net::AuthChallengePayload::deserialize(challenge.payload)
                  .challenge,
              first_rnd_a);
    const auto response = rig.server.handle(challenge);
    ASSERT_TRUE(crypto.complete(response)) << when;
    EXPECT_TRUE(seen.insert(net::AuthResponsePayload::deserialize(
                                response.payload)
                                .challenge)
                    .second)
        << "RndB repeated " << when;
  };

  for (int i = 0; i < 4; ++i) expect_fresh("plainly");
  ASSERT_TRUE(rig.server.revoke_device(kDevice));
  rig.server.enroll_device(kDevice);
  expect_fresh("after revoke + re-enroll");
  expect_fresh("after revoke + re-enroll");
  rig.server.rotate_master_key(2, master_key(0x6b));
  expect_fresh("after rotate_master_key");
  expect_fresh("after rotate_master_key");

  constexpr int kOthers = 3;
  constexpr int kRounds = 50;
  for (std::uint64_t id = 1; id <= kOthers; ++id) rig.server.enroll_device(id);
  std::array<int, kOthers> completed{};
  std::vector<std::thread> others;
  for (int t = 0; t < kOthers; ++t) {
    others.emplace_back([&rig, &completed, t] {
      const auto id = static_cast<std::uint64_t>(t + 1);
      for (int round = 0; round < kRounds; ++round) {
        core::SessionCrypto crypto(
            id, crypto::diversify_device_key(master_key(0x6b), id, 2), 2,
            kSeed);
        if (crypto.complete(rig.server.handle(crypto.make_challenge(
                static_cast<std::uint64_t>(1000 + round)))))
          ++completed[static_cast<std::size_t>(t)];
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) expect_fresh("under load");
  for (auto& thread : others) thread.join();
  for (const int count : completed) EXPECT_EQ(count, kRounds);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(8 + kRounds));
}

TEST(RegistryPersistence, RoundTripsAllKeyingState) {
  DeviceRegistry registry(4);
  registry.set_master_key(1, master_key(0x5a));
  registry.set_master_key(2, master_key(0xc3));
  registry.enroll(1);
  registry.enroll(2);
  registry.enroll(10);
  registry.enroll(11);
  registry.revoke(2);
  registry.revoke(11);

  const auto body = encode_registry_body(registry);
  DeviceRegistry loaded(8);  // shard count is a process detail, not state
  loaded.restore(decode_registry_body(body));

  EXPECT_EQ(loaded.current_epoch(), 2u);
  EXPECT_TRUE(loaded.has_epoch(1));
  EXPECT_EQ(loaded.lookup(1), registry.lookup(1));
  EXPECT_EQ(loaded.lookup(10), registry.lookup(10));
  EXPECT_EQ(loaded.lookup_epoch(10, 1), registry.lookup_epoch(10, 1));
  EXPECT_TRUE(loaded.is_revoked(2));
  EXPECT_TRUE(loaded.is_revoked(11));
  EXPECT_EQ(loaded.size(), registry.size());

  // Deterministic serialization: a second encode is byte-identical.
  EXPECT_EQ(encode_registry_body(loaded), body);
}

TEST(RegistryPersistence, RejectsCorruptFile) {
  DeviceRegistry registry(2);
  registry.set_master_key(1, master_key(0x5a));
  registry.enroll(1);
  constexpr std::uint32_t kMagic = 0x54455354;  // "TEST"
  auto bytes = seal_blob(kMagic, encode_registry_body(registry));
  bytes[bytes.size() / 2] ^= 0xff;
  EXPECT_THROW((void)unseal_blob(kMagic, bytes), std::runtime_error);
}

}  // namespace
}  // namespace medsen::cloud
