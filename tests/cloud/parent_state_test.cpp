// Upgrade path: a state directory written by a build that kept a
// per-device handshake ordinal durable still recovers.
//
// tests/cloud/data/parent_state/ was written by commit 4eb6aae, the last
// build that journaled every handshake as record type 8 and kept each
// device's ordinal in sessions.snap, through the public API only:
//
//   DurabilityConfig: storage key 32 x 0x5C, compact_after_records 0
//   CloudServer with default AnalysisConfig and ServiceConfig
//   rotate_master_key(1, 16 x 0x5A)
//   enroll_device(1), enroll_device(2), enroll_device(3), revoke_device(3)
//   enroll_user("alice", {2, 1})
//   store_result(code, {11, {0xAA, 0xBB}}), store_result(code, {12, {0xCC}})
//   handshake: device 1, session 100, RndA 0xA0..0xAF  -> kParentRndBs[0]
//   handshake: device 1, session 101, same RndA        -> kParentRndBs[1]
//   compact()                  (sessions.snap holds device 1's ordinal 2)
//   handshake: device 1, session 102, same RndA        -> kParentRndBs[2]
//   store_result(code, {13, {0xDD}})
//
// The journal tail therefore holds a type-8 record (LSN 11) and a type-1
// record (LSN 12). Each handshake is an AuthChallenge envelope built with
// net::make_envelope under the device's epoch-1 key at counter 0.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cloud/durability.h"
#include "cloud/server.h"
#include "crypto/cmac.h"
#include "net/messages.h"

namespace medsen::cloud {
namespace {

namespace fs = std::filesystem;

using Nonce = std::array<std::uint8_t, net::AuthResponsePayload::kNonceSize>;

/// The RndBs the parent build issued for the three handshakes above.
constexpr std::array<Nonce, 3> kParentRndBs = {{
    {0x89, 0xE0, 0xDD, 0xEC, 0xEE, 0x7B, 0xD9, 0xCD, 0xAA, 0x15, 0x7E, 0xA2,
     0xFA, 0x2E, 0x60, 0x01},
    {0xBE, 0xC1, 0xDE, 0xE6, 0x8A, 0x05, 0x79, 0x4E, 0x0A, 0x9F, 0x20, 0x68,
     0xB7, 0x35, 0x85, 0xA7},
    {0x26, 0x5D, 0x05, 0x49, 0x8B, 0xE2, 0x06, 0x63, 0x18, 0x78, 0x70, 0xAB,
     0xC8, 0xB6, 0xDA, 0x14},
}};

DurabilityConfig parent_config(const fs::path& dir) {
  DurabilityConfig config;
  config.dir = dir.string();
  config.storage_key = std::vector<std::uint8_t>(32, 0x5C);
  config.compact_after_records = 0;
  return config;
}

std::vector<std::uint8_t> device_key(std::uint64_t device) {
  return crypto::diversify_device_key(std::vector<std::uint8_t>(16, 0x5A),
                                      device, 1);
}

/// Device 1's handshake with the fixed RndA; returns RndB.
Nonce handshake(CloudServer& server, std::uint64_t session) {
  net::AuthChallengePayload challenge;
  challenge.key_epoch = 1;
  for (std::size_t i = 0; i < challenge.challenge.size(); ++i)
    challenge.challenge[i] = static_cast<std::uint8_t>(0xA0 + i);
  const auto key = device_key(1);
  const auto response = server.handle(
      net::make_envelope(net::MessageType::kAuthChallenge, session, 1,
                         challenge.serialize(), key, 0));
  EXPECT_EQ(response.type, net::MessageType::kAuthResponse);
  EXPECT_TRUE(net::verify_envelope(response, key));
  return net::AuthResponsePayload::deserialize(response.payload).challenge;
}

/// The parent's stores, plus `later` records stored since under the
/// same code with sessions 14, 15, ...
void expect_parent_stores(CloudServer& server, std::size_t later = 0) {
  auth::CytoCode code;
  code.levels = {2, 1};
  EXPECT_EQ(server.devices().current_epoch(), 1u);
  EXPECT_EQ(server.devices().size(), 2u);
  for (const std::uint64_t id : {1u, 2u}) {
    EXPECT_FALSE(server.devices().is_revoked(id)) << "device " << id;
    EXPECT_TRUE(server.devices().lookup_epoch(id, 1).has_value())
        << "device " << id;
  }
  EXPECT_TRUE(server.devices().is_revoked(3));
  EXPECT_FALSE(server.devices().lookup(3).has_value());

  EXPECT_EQ(server.enrollments().size(), 1u);
  EXPECT_EQ(server.enrollments().lookup(code), "alice");

  const auto records = server.records().fetch(code);
  ASSERT_EQ(records.size(), 3u + later);
  EXPECT_EQ(records[0].session_id, 11u);
  EXPECT_EQ(records[0].encrypted_result,
            (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(records[1].session_id, 12u);
  EXPECT_EQ(records[1].encrypted_result, (std::vector<std::uint8_t>{0xCC}));
  EXPECT_EQ(records[2].session_id, 13u);
  EXPECT_EQ(records[2].encrypted_result, (std::vector<std::uint8_t>{0xDD}));
  for (std::size_t i = 0; i < later; ++i) {
    EXPECT_EQ(records[3 + i].session_id, 14u + i);
    EXPECT_EQ(records[3 + i].encrypted_result,
              (std::vector<std::uint8_t>{0xEE}));
  }
  // records.snap's two stay in memory; the rest read back from the log.
  const auto latest = server.records().latest(code);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->session_id, records.back().session_id);
  EXPECT_EQ(latest->encrypted_result, records.back().encrypted_result);
  EXPECT_EQ(server.records().record_count(), 3u + later);
  EXPECT_EQ(server.records().identifier_count(), 1u);
}

TEST(Durability, RecoversStateDirectoryWrittenByParent) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "medsen_parent_state";
  fs::remove_all(dir);
  fs::copy(fs::path(MEDSEN_CLOUD_TEST_DATA) / "parent_state", dir);

  {
    DurableState durable(parent_config(dir));
    CloudServer server(AnalysisConfig{}, auth::CytoAlphabet{},
                       auth::ParticleClassifier::train({}));
    const RecoveryStats recovery = server.attach_durability(durable);
    EXPECT_TRUE(recovery.snapshots_loaded);
    EXPECT_FALSE(recovery.tail_truncated);
    EXPECT_EQ(recovery.last_lsn, 12u);
    EXPECT_EQ(recovery.stored_records, 1u);
    // The type-8 record is skipped, not replayed: only the store counts.
    EXPECT_EQ(recovery.records_replayed, 1u);
    expect_parent_stores(server);

    // The same device replaying the same RndA gets a fresh RndB.
    const Nonce fresh = handshake(server, 103);
    for (const auto& old : kParentRndBs) EXPECT_NE(fresh, old);

    durable.compact(server);
    // The tail's store now reads back from segment 1.
    expect_parent_stores(server);
  }
  {
    // Compaction renamed the old tail into segment 1, next to the
    // parent's snapshots; the directory keeps booting. The tail's
    // store (LSN 12, above the snapshots' 10) replays from the segment.
    DurableState durable(parent_config(dir));
    CloudServer server(AnalysisConfig{}, auth::CytoAlphabet{},
                       auth::ParticleClassifier::train({}));
    const RecoveryStats recovery = server.attach_durability(durable);
    EXPECT_EQ(recovery.segments_replayed, 1u);
    EXPECT_EQ(recovery.records_replayed, 1u);
    expect_parent_stores(server);
  }
  fs::remove_all(dir);
}

TEST(Durability, ParentStateDirectoryCompactsIntoSegments) {
  // The upgrade path under compaction: the parent's snapshots stay as
  // they are, each compaction renames the journal into the next segment,
  // and every store recovers exactly once and in order across two
  // compactions and three boots.
  const fs::path dir =
      fs::path(::testing::TempDir()) / "medsen_parent_state_segments";
  fs::remove_all(dir);
  fs::copy(fs::path(MEDSEN_CLOUD_TEST_DATA) / "parent_state", dir);
  auth::CytoCode code;
  code.levels = {2, 1};

  for (std::size_t later = 0; later <= 2; ++later) {
    DurableState durable(parent_config(dir));
    CloudServer server(AnalysisConfig{}, auth::CytoAlphabet{},
                       auth::ParticleClassifier::train({}));
    const RecoveryStats recovery = server.attach_durability(durable);
    EXPECT_TRUE(recovery.snapshots_loaded);
    EXPECT_EQ(recovery.segments_replayed, later);
    expect_parent_stores(server, later);
    if (later == 2) break;
    server.store_result(code, {14 + later, {0xEE}});
    expect_parent_stores(server, later + 1);
    durable.compact(server);
    expect_parent_stores(server, later + 1);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace medsen::cloud
