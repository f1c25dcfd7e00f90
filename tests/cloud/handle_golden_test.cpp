// Pins CloudServer::handle() byte for byte across one thread walking
// every outcome the service boundary can produce: fresh, replayed,
// conflicting, stale and out-of-order session commands, bad MACs,
// MAC-valid garbage, the counter-0 plane on and off, unknown, revoked
// and retired-epoch devices, missing sessions, admission shedding,
// handshakes, re-keys, revocation, master rotation and LRU eviction at
// capacity 2 on one shard.
//
// Each step records the SHA-256 of the serialized response envelope.
// The digests, the final ServiceStats integer fields and the digest of
// encode_registry_body() were recorded on the build that kept the
// session table, the exchange cache and the service counters as three
// separately locked structures; a refactor of the service layer must
// reproduce them exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/persistence.h"
#include "cloud/server.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"
#include "crypto/sha256.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevice = 7;   // session-plane device
constexpr std::uint64_t kLegacy = 8;   // counter-0 plane device
constexpr std::uint64_t kUnknown = 9;  // never enrolled
constexpr std::uint64_t kSeed = 0x60D;

std::vector<std::uint8_t> master_key(std::uint8_t fill) {
  return std::vector<std::uint8_t>(16, fill);
}

std::vector<std::uint8_t> device_key(std::uint64_t device) {
  return crypto::diversify_device_key(master_key(0x5a), device, 1);
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

util::MultiChannelSeries saturated_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(5000, 2.5));
  return series;
}

net::Envelope upload(const util::MultiChannelSeries& series,
                     std::uint64_t session, std::uint64_t device,
                     std::span<const std::uint8_t> key,
                     std::uint32_t counter) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(series);
  return net::make_envelope(net::MessageType::kSignalUpload, session, device,
                            payload.serialize(), key, counter);
}

net::Envelope auth_pass(std::uint64_t session, std::uint64_t device,
                        std::span<const std::uint8_t> key) {
  net::AuthPassPayload pass;
  pass.upload.compressed = false;
  pass.upload.sample_rate_hz = 450.0;
  pass.upload.data = net::serialize_series(dip_series(2));
  pass.volume_ul = 1.0;
  return net::make_envelope(net::MessageType::kAuthPass, session, device,
                            pass.serialize(), key);
}

CloudServer make_server(ServiceConfig service) {
  return CloudServer(AnalysisConfig{}, auth::CytoAlphabet{},
                     auth::ParticleClassifier::train({}),
                     auth::VerifierConfig{}, nullptr, service);
}

/// The ordered (step, response digest) record, plus each step's outcome
/// checked in readable form as it goes.
class Transcript {
 public:
  explicit Transcript(CloudServer& server) : server_(server) {}

  net::Envelope send(const char* step, const net::Envelope& request,
                     net::MessageType expected_type) {
    auto response = server_.handle(request);
    EXPECT_EQ(response.type, expected_type) << step;
    record(step, response);
    return response;
  }

  net::Envelope reject(const char* step, const net::Envelope& request,
                       net::ErrorCode expected) {
    auto response = server_.handle(request);
    EXPECT_EQ(response.type, net::MessageType::kError) << step;
    if (response.type == net::MessageType::kError) {
      EXPECT_EQ(net::ErrorPayload::deserialize(response.payload).code,
                expected)
          << step;
    }
    record(step, response);
    return response;
  }

  void record(const std::string& step, const net::Envelope& response) {
    steps_.emplace_back(step, crypto::to_hex(crypto::sha256(
                                  response.serialize())));
  }

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  steps() const {
    return steps_;
  }

 private:
  CloudServer& server_;
  std::vector<std::pair<std::string, std::string>> steps_;
};

std::string stats_line(const ServiceStats& s) {
  std::ostringstream out;
  out << "processed=" << s.requests_processed
      << " replays=" << s.replays_served << " errors=" << s.errors_returned
      << " shed=" << s.requests_shed
      << " handshakes=" << s.handshakes_completed
      << " counter_rejections=" << s.counter_rejections;
  return out.str();
}

/// Server A: one shard, two cached exchanges, at most two requests in
/// flight, counter-0 plane open.
Transcript run_open_plane(CloudServer& server) {
  Transcript t(server);
  server.rotate_master_key(1, master_key(0x5a));
  server.enroll_device(kDevice);
  server.enroll_device(kLegacy);
  const auto longterm = device_key(kDevice);
  const auto legacy_key = device_key(kLegacy);

  // Handshake, and its byte-identical retransmit served from the cache.
  core::SessionCrypto crypto(kDevice, device_key(kDevice), 1, kSeed);
  const auto challenge = crypto.make_challenge(100);
  const auto hello =
      t.send("handshake", challenge, net::MessageType::kAuthResponse);
  EXPECT_TRUE(crypto.complete(hello));
  t.send("handshake retransmit", challenge, net::MessageType::kAuthResponse);
  const auto session = crypto.session_mac_key();

  // Fresh command, its replay, and a conflicting payload on its counter.
  const auto first = upload(dip_series(2), 100, kDevice, session, 1);
  t.send("fresh upload", first, net::MessageType::kAnalysisResult);
  t.send("replay", first, net::MessageType::kAnalysisResult);
  t.reject("conflict", upload(dip_series(3), 100, kDevice, session, 1),
           net::ErrorCode::kSessionConflict);

  // Out of order inside the window: 3 before 2, both fresh once.
  t.send("counter 3 before 2", upload(dip_series(1), 100, kDevice, session, 3),
         net::MessageType::kAnalysisResult);
  t.send("counter 2 inside window",
         upload(dip_series(1), 100, kDevice, session, 2),
         net::MessageType::kAnalysisResult);
  // Counter 1's exchange was evicted (capacity 2, one shard): the window
  // refuses its replay instead of re-running it.
  t.reject("replay after eviction", first, net::ErrorCode::kStaleCounter);
  t.send("counter 100", upload(dip_series(1), 100, kDevice, session, 100),
         net::MessageType::kAnalysisResult);
  t.reject("below window floor",
           upload(dip_series(2), 100, kDevice, session, 20),
           net::ErrorCode::kStaleCounter);

  // Integrity failures and MAC-valid garbage.
  auto tampered = upload(dip_series(1), 100, kDevice, session, 101);
  tampered.payload[tampered.payload.size() / 2] ^= 0x01;
  t.reject("bad mac", tampered, net::ErrorCode::kBadMac);
  t.reject("mac-valid garbage",
           net::make_envelope(net::MessageType::kSignalUpload, 100, kDevice,
                              {1, 2, 3}, session, 101),
           net::ErrorCode::kMalformed);
  t.reject("unroutable type",
           net::make_envelope(net::MessageType::kAnalysisResult, 100, kDevice,
                              {}, session, 101),
           net::ErrorCode::kMalformed);
  t.reject("quality rejected",
           upload(saturated_series(), 100, kDevice, session, 101),
           net::ErrorCode::kQualityRejected);
  // A failed command keeps its counter.
  t.send("counter kept after failure",
         upload(dip_series(1), 100, kDevice, session, 101),
         net::MessageType::kAnalysisResult);

  // Counter-0 plane: uploads and an auth pass under the long-term key,
  // with the oldest exchange evicted and then re-run.
  const auto legacy_one = upload(dip_series(1), 1, kLegacy, legacy_key, 0);
  t.send("legacy upload", legacy_one, net::MessageType::kAnalysisResult);
  t.send("legacy replay", legacy_one, net::MessageType::kAnalysisResult);
  t.send("legacy auth pass", auth_pass(2, kLegacy, legacy_key),
         net::MessageType::kAuthDecision);
  t.send("legacy upload 3", upload(dip_series(3), 3, kLegacy, legacy_key, 0),
         net::MessageType::kAnalysisResult);
  t.send("legacy re-run after eviction",
         upload(dip_series(2), 1, kLegacy, legacy_key, 0),
         net::MessageType::kAnalysisResult);
  t.reject("legacy conflict", upload(dip_series(3), 1, kLegacy, legacy_key, 0),
           net::ErrorCode::kSessionConflict);

  // Senders the server cannot or will not key.
  t.reject("unknown device",
           upload(dip_series(1), 1, kUnknown, device_key(kUnknown), 0),
           net::ErrorCode::kUnknownDevice);
  core::SessionCrypto stranger(kUnknown, device_key(kUnknown), 1, kSeed);
  t.reject("unknown device handshake", stranger.make_challenge(1),
           net::ErrorCode::kUnknownDevice);
  t.reject("auth required",
           upload(dip_series(1), 555, kDevice, session, 1),
           net::ErrorCode::kAuthRequired);
  core::SessionCrypto wrong_epoch(
      kDevice, crypto::diversify_device_key(master_key(0x5a), kDevice, 5), 5,
      kSeed);
  t.reject("bad epoch", wrong_epoch.make_challenge(400),
           net::ErrorCode::kBadEpoch);
  t.reject("malformed challenge",
           net::make_envelope(net::MessageType::kAuthChallenge, 401, kDevice,
                              {0xff}, longterm),
           net::ErrorCode::kMalformed);

  // Shed under max_inflight = 2, signed for known devices only.
  {
    auto slot1 = server.admission().try_enter();
    auto slot2 = server.admission().try_enter();
    t.reject("shed", upload(dip_series(1), 100, kDevice, session, 102),
             net::ErrorCode::kOverloaded);
    t.reject("shed unknown device",
             upload(dip_series(1), 1, kUnknown, device_key(kUnknown), 0),
             net::ErrorCode::kOverloaded);
  }
  t.send("shed command retried",
         upload(dip_series(1), 100, kDevice, session, 102),
         net::MessageType::kAnalysisResult);

  // Re-key: the new handshake replaces the session and its window.
  const auto rekey = t.send("re-key", crypto.make_challenge(200),
                            net::MessageType::kAuthResponse);
  EXPECT_TRUE(crypto.complete(rekey));
  t.reject("old session after re-key",
           upload(dip_series(1), 100, kDevice, session, 103),
           net::ErrorCode::kAuthRequired);
  const auto rekeyed = crypto.session_mac_key();
  t.send("new session counter 1",
         upload(dip_series(2), 200, kDevice, rekeyed, crypto.next_counter()),
         net::MessageType::kAnalysisResult);

  // Rotation drops every session; the grace window re-keys under epoch 1.
  server.rotate_master_key(2, master_key(0xc3));
  t.reject("session after rotation",
           upload(dip_series(1), 200, kDevice, rekeyed, 2),
           net::ErrorCode::kAuthRequired);
  const auto grace = t.send("grace handshake", crypto.make_challenge(300),
                            net::MessageType::kAuthResponse);
  EXPECT_TRUE(crypto.complete(grace));
  t.send("grace session upload",
         upload(dip_series(1), 300, kDevice, crypto.session_mac_key(),
                crypto.next_counter()),
         net::MessageType::kAnalysisResult);

  // Revocation refuses every plane until re-enrollment.
  EXPECT_TRUE(server.revoke_device(kDevice));
  EXPECT_FALSE(server.revoke_device(kUnknown));
  t.reject("revoked session command",
           upload(dip_series(1), 300, kDevice, crypto.session_mac_key(), 2),
           net::ErrorCode::kRevoked);
  t.reject("revoked handshake", crypto.make_challenge(301),
           net::ErrorCode::kRevoked);
  t.reject("revoked legacy command",
           upload(dip_series(1), 9, kDevice, longterm, 0),
           net::ErrorCode::kRevoked);
  server.enroll_device(kDevice);
  const auto back = t.send("handshake after re-enroll",
                           crypto.make_challenge(302),
                           net::MessageType::kAuthResponse);
  EXPECT_TRUE(crypto.complete(back));
  server.enroll_device(kUnknown + 1);
  EXPECT_TRUE(server.revoke_device(kUnknown + 1));
  return t;
}

/// Server B: counter-0 commands refused, handshakes still open.
Transcript run_closed_plane(CloudServer& server) {
  Transcript t(server);
  server.rotate_master_key(1, master_key(0x5a));
  server.enroll_device(kDevice);
  const auto longterm = device_key(kDevice);
  t.reject("legacy plane off",
           upload(dip_series(1), 50, kDevice, longterm, 0),
           net::ErrorCode::kAuthRequired);
  t.reject("legacy plane off, unknown device",
           upload(dip_series(1), 50, kUnknown, device_key(kUnknown), 0),
           net::ErrorCode::kAuthRequired);
  core::SessionCrypto crypto(kDevice, device_key(kDevice), 1, kSeed);
  const auto hello = t.send("handshake with plane off",
                            crypto.make_challenge(100),
                            net::MessageType::kAuthResponse);
  EXPECT_TRUE(crypto.complete(hello));
  t.send("session upload with plane off",
         upload(dip_series(1), 100, kDevice, crypto.session_mac_key(),
                crypto.next_counter()),
         net::MessageType::kAnalysisResult);
  return t;
}

void expect_steps(const Transcript& t,
                  const std::vector<std::pair<std::string, std::string>>&
                      golden) {
  const auto& got = t.steps();
  EXPECT_EQ(got.size(), golden.size());
  bool same = got.size() == golden.size();
  for (std::size_t i = 0; i < got.size() && i < golden.size(); ++i) {
    EXPECT_EQ(got[i].first, golden[i].first) << "step " << i;
    EXPECT_EQ(got[i].second, golden[i].second) << got[i].first;
    same = same && got[i] == golden[i];
  }
  if (same) return;
  std::ostringstream table;
  for (const auto& [step, digest] : got)
    table << "      {\"" << step << "\",\n       \"" << digest << "\"},\n";
  ADD_FAILURE() << "recorded transcript:\n" << table.str();
}

TEST(HandleGolden, EveryOutcomeIsByteIdentical) {
  ServiceConfig open;
  open.shards = 1;
  open.session_cache_capacity = 2;
  open.max_inflight = 2;
  auto server = make_server(open);
  const Transcript t = run_open_plane(server);
  expect_steps(t, {
      {"handshake",
       "24c831712620ac330f7e0ec7a95a74cd75663e7621d3dd38e7a41c14d81416b2"},
      {"handshake retransmit",
       "24c831712620ac330f7e0ec7a95a74cd75663e7621d3dd38e7a41c14d81416b2"},
      {"fresh upload",
       "01701cb0cf0fbf21cd0c48d62079ede53f6e20917a6e5f3c54d01472f770b23a"},
      {"replay",
       "01701cb0cf0fbf21cd0c48d62079ede53f6e20917a6e5f3c54d01472f770b23a"},
      {"conflict",
       "4e6b7b1f6aec07919451ed6c9a6e9abb39aea7801a7274e7fda8033651f2a61b"},
      {"counter 3 before 2",
       "2f92064e5b4651ecac7a933a3c2812c32732125423096b97aab7dcbd9692be86"},
      {"counter 2 inside window",
       "89eb22fde39482d903dd0ab28fdc3458aa0da11a9fdc96bb8e197374d8056880"},
      {"replay after eviction",
       "a2eb13fd6121779ce93a4a779a442c67afacaa897ff32fcdfec1fd12f7c12061"},
      {"counter 100",
       "494fda8be5518085eb2b93ad580a41b71356e6a4a436f7e93ca2621ac75e459d"},
      {"below window floor",
       "6e9755473fbd88da78317a5d74c4d885d7c6ab7d7d0e852a74d1d327c39c6355"},
      {"bad mac",
       "57feb622a80ef2479af3e9d99e1a9a22d7d757c392ce389999103ebc1cee0daf"},
      {"mac-valid garbage",
       "bdc79e070e939bed074976da70191cca37f2fc203af93a2497db7564dd209a68"},
      {"unroutable type",
       "fd33c2361c7ed7e788aaf2906bc1d3bb84a8e65ff63ddc25fc6f51ade70c1458"},
      {"quality rejected",
       "e43e41939748f7c6c1815344bbc31f868d34e9aa281cca2d35e7ea9e50372283"},
      {"counter kept after failure",
       "35d385698a65599c20a3f251c58dc9297f4e0bad9b93a48d805e52c23f78b987"},
      {"legacy upload",
       "25e4df4115c56b6d0f2d6ea358615caccaae7b14032aba0e5ff6b0fb1e182845"},
      {"legacy replay",
       "25e4df4115c56b6d0f2d6ea358615caccaae7b14032aba0e5ff6b0fb1e182845"},
      {"legacy auth pass",
       "b98b82d5249e2b048b3bc66d7bd83fd1e7f28530325a68b3d45b8eedf18dda70"},
      {"legacy upload 3",
       "64331aef70eb611a2f4095e08d83ac22aae3633c9ea8fb3c537852b01731329c"},
      {"legacy re-run after eviction",
       "615fb13ed483ad9eef91f985750db70a68ca3a54ab03f3a470f740ff444006b9"},
      {"legacy conflict",
       "531374db174172217e9f467ff6059113e47653a0b3f71f336389b91fcd7b45ff"},
      {"unknown device",
       "43053fc6a7728db305401a115d27e04c468fcec319b47d5d7cbd1c298c77af0c"},
      {"unknown device handshake",
       "43053fc6a7728db305401a115d27e04c468fcec319b47d5d7cbd1c298c77af0c"},
      {"auth required",
       "4abc49aa2fdb45db03e4a8b9b57d6d5ac90da3061fa1faaf430f16f4865ad9b3"},
      {"bad epoch",
       "d4811fcd9614a6800b6036ed7cee22fa2bda32127a2db31cc5c76d1f6fd66378"},
      {"malformed challenge",
       "c75077260f367d0b1c53e802635b1e1bafe99fc4c689a91b4c098d1c6d18831a"},
      {"shed",
       "93fcc5f9dcbc2f362f9a3ce06d9e84820c86b1ae5fd4f90096e83ab28c093e31"},
      {"shed unknown device",
       "59f73b333a7fc4b204a3dfad7f0fd9e90d02dac093a2016581e20b77001c2d91"},
      {"shed command retried",
       "e3bda9b9e7ef4eb8815d33f7a07a91629766ad7c88737a5e104643e8009a7a36"},
      {"re-key",
       "47c9220bd431501ed720bc97f4ea06c7791611e3b8f113de20a00f955a73e39c"},
      {"old session after re-key",
       "6f743c4fb14641d186149bfd1311d7ebe2ec94fc9fe6dfaa7833727e7872ea5d"},
      {"new session counter 1",
       "8c5e329f2a58c6c6534fe1a8edac8af496aec69183e2c833e428d2c01b4816d2"},
      {"session after rotation",
       "e92b464209e74dd0cc0f7024bee2b907e3c0070bc1ce66d8e3b7b00433482e47"},
      {"grace handshake",
       "99d67fce9bb698a90eff6437773351895a0e243c60b03a18093a4df3a5fb681b"},
      {"grace session upload",
       "f8977054d07025b40ab5b5d44d41e4884d95f5bcf2ff89c1c0689a8c294a5339"},
      {"revoked session command",
       "7537faabcf4fdea10a0b566209e87f006d82fc2f7fe28f00940a571aa74764d4"},
      {"revoked handshake",
       "15cc818bb6e1a900b0e8947e09251cf78dcd9eeb5eda77eb0bef6e9ab5eefe73"},
      {"revoked legacy command",
       "a66ae133cab8525259f8989d1cc29fe53cbaa1fa6484bde5f56d9c018317a171"},
      {"handshake after re-enroll",
       "b9f5ce9157c881341e50350589821318b5a99567ea1290c73ef19c93fba71f22"},
  });
  EXPECT_EQ(stats_line(server.stats()),
            "processed=16 replays=3 errors=20 shed=2 handshakes=4 "
            "counter_rejections=2");
  EXPECT_EQ(crypto::to_hex(crypto::sha256(
                encode_registry_body(server.devices()))),
            "365c9a20f70cbf6dd06c26a99049853852fd564c394483d46c68868ca5864a9d");

  ServiceConfig closed;
  closed.shards = 1;
  closed.session_cache_capacity = 2;
  closed.allow_legacy_plane = false;
  auto strict = make_server(closed);
  const Transcript u = run_closed_plane(strict);
  expect_steps(u, {
      {"legacy plane off",
       "66dd93bcc33be18cd0c01f8112ee16fa664976fe7fc4a018509e04cde79be890"},
      {"legacy plane off, unknown device",
       "f0ad8bd16a817df139438e0bbb71c82c42d7cd8f67004e536fb457a38c92354d"},
      {"handshake with plane off",
       "24c831712620ac330f7e0ec7a95a74cd75663e7621d3dd38e7a41c14d81416b2"},
      {"session upload with plane off",
       "7ca867f5d3e5298ffadfb9b58478b16843e75f02af10f8e69f896080e902a4e9"},
  });
  EXPECT_EQ(stats_line(strict.stats()),
            "processed=2 replays=0 errors=2 shed=0 handshakes=1 "
            "counter_rejections=0");
  EXPECT_EQ(crypto::to_hex(crypto::sha256(
                encode_registry_body(strict.devices()))),
            "10d09ea27d14c2e44c7ea668799ca7e99fcbeddf06fd3154eb89459e6d509749");
}

}  // namespace
}  // namespace medsen::cloud
