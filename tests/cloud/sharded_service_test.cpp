// The sharded service layer's concurrency contract: deterministic
// shard routing, tenant isolation across shards, LRU bounding of the
// idempotent session cache, and a many-thread hammer that TSan (the
// `cloud` sanitizer label) can chew on. CloudServer::handle() semantics
// themselves are pinned by server_test.cpp — these tests cover what
// sharding added, not what it must not have changed.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "cloud/server.h"
#include "test_devices.h"
#include "util/sharded.h"

namespace medsen::cloud {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);

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
                        std::span<const std::uint8_t> key) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(series);
  return net::make_envelope(net::MessageType::kSignalUpload, session, device,
                            payload.serialize(), key);
}

// --- Shard routing -------------------------------------------------------

TEST(ShardedService, RegistryRoutingIsDeterministicAcrossInstances) {
  const DeviceRegistry a(8);
  const DeviceRegistry b(8);
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::uint64_t device = 0; device < 500; ++device) {
    EXPECT_EQ(a.shard_of(device), b.shard_of(device)) << device;
    // Routing is the published FNV-1a contract, not an implementation
    // accident: operators plan shard balance around it.
    EXPECT_EQ(a.shard_of(device),
              static_cast<std::size_t>(util::fnv1a64(device)) &
                  (a.shard_count() - 1));
  }
}

TEST(ShardedService, ServerHonorsConfiguredShardCount) {
  ServiceConfig service;
  service.shards = 8;
  auto server = make_server(service);
  EXPECT_EQ(server.devices().shard_count(), 8u);
  // The exchange cache's bound is split across the same shards.
  EXPECT_EQ(server.devices().per_shard_capacity(),
            service.session_cache_capacity / 8);
  EXPECT_EQ(server.records().shard_count(), 8u);

  ServiceConfig single;
  single.shards = 1;
  auto baseline = make_server(single);
  EXPECT_EQ(baseline.devices().shard_count(), 1u);
}

// --- Tenant isolation across shards --------------------------------------

TEST(ShardedService, DevicesOnDifferentShardsAreIsolated) {
  ServiceConfig service;
  service.shards = 4;
  auto server = make_server(service);

  // Pick two devices that provably land on different shards.
  const std::uint64_t device_a = 1;
  std::uint64_t device_b = 2;
  while (server.devices().shard_of(device_b) ==
         server.devices().shard_of(device_a))
    ++device_b;
  const auto key_a = testkit::enroll(server, device_a);
  const auto key_b = testkit::enroll(server, device_b);

  const auto series = dip_series(2);
  const auto response_a = server.handle(upload_of(series, 1, device_a, key_a));
  const auto response_b = server.handle(upload_of(series, 1, device_b, key_b));
  EXPECT_EQ(response_a.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(response_b.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(response_a.device_id, device_a);
  EXPECT_EQ(response_b.device_id, device_b);
  // Each response is MAC'd with its own tenant's key, never the other's.
  EXPECT_TRUE(net::verify_envelope(response_a, key_a));
  EXPECT_FALSE(net::verify_envelope(response_a, key_b));
  EXPECT_TRUE(net::verify_envelope(response_b, key_b));

  // Revoking one tenant must not disturb the other, same or other shard.
  EXPECT_TRUE(server.devices().revoke(device_a));
  const auto after = server.handle(upload_of(series, 2, device_a, key_a));
  EXPECT_EQ(after.type, net::MessageType::kError);
  const auto still_ok = server.handle(upload_of(series, 2, device_b, key_b));
  EXPECT_EQ(still_ok.type, net::MessageType::kAnalysisResult);
}

// Same (device, session) pair on two different devices never collide in
// the session cache: session ids are scoped per tenant.
TEST(ShardedService, SessionIdsAreScopedPerDevice) {
  ServiceConfig service;
  service.shards = 4;
  auto server = make_server(service);
  testkit::enroll(server, 1);
  const auto key_b = testkit::enroll(server, 2);

  const auto first = server.handle(upload_of(dip_series(2), 7, 1, kMacKey));
  ASSERT_EQ(first.type, net::MessageType::kAnalysisResult);
  // Device 2 reuses session 7 with different bytes; if the cache keyed on
  // session alone this would be a conflict or a stale replay.
  const auto second = server.handle(upload_of(dip_series(3), 7, 2, key_b));
  EXPECT_EQ(second.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(server.stats().replays_served, 0u);
}

// --- Session-cache LRU bounding ------------------------------------------

net::Envelope envelope_for(std::uint64_t session, std::uint8_t byte) {
  return net::make_envelope(net::MessageType::kSignalUpload, session, 1,
                            {byte}, kMacKey);
}

/// Reserve and complete one counter-0 exchange, as handle() does for a
/// request that succeeded.
void serve(DeviceRegistry& registry, const net::Envelope& request,
           const net::Envelope& response) {
  ASSERT_EQ(registry.reserve(request, false).state, SlotState::kReserved);
  registry.complete(request, response, false);
}

TEST(SessionCacheLru, CapacityBoundsOccupancyAndCountsEvictions) {
  DeviceRegistry registry(/*shards=*/1, /*cache_capacity=*/4);
  ASSERT_EQ(registry.per_shard_capacity(), 4u);  // one shard: exact

  for (std::uint64_t session = 0; session < 10; ++session)
    serve(registry, envelope_for(session, static_cast<std::uint8_t>(session)),
          envelope_for(session, 0xEE));
  EXPECT_EQ(registry.cache_size(), 4u);
  EXPECT_EQ(registry.evictions(), 6u);
}

TEST(SessionCacheLru, ReplayRefreshesRecency) {
  DeviceRegistry registry(1, 2);
  serve(registry, envelope_for(1, 1), envelope_for(1, 0xEE));
  serve(registry, envelope_for(2, 2), envelope_for(2, 0xEE));
  // Touch session 1: it becomes most recent, so completing session 3
  // evicts session 2, not 1.
  EXPECT_EQ(registry.reserve(envelope_for(1, 1), false).state,
            SlotState::kReplay);
  serve(registry, envelope_for(3, 3), envelope_for(3, 0xEE));
  EXPECT_EQ(registry.reserve(envelope_for(1, 1), false).state,
            SlotState::kReplay);
  EXPECT_EQ(registry.reserve(envelope_for(2, 2), false).state,
            SlotState::kReserved);
}

// Eviction must never cause a *different* payload under a recycled
// session id to be answered from stale cache state. Once the original
// exchange is evicted, a new payload on that session id is a fresh
// request — reserved, not conflicted, and certainly not answered with
// the old response.
TEST(SessionCacheLru, EvictedSessionWithNewPayloadIsAFreshMiss) {
  DeviceRegistry registry(1, 2);
  serve(registry, envelope_for(7, 0x01), envelope_for(7, 0xAA));
  // While cached, a different payload on session 7 is a conflict...
  EXPECT_EQ(registry.reserve(envelope_for(7, 0x02), false).state,
            SlotState::kConflict);
  // ...then two new sessions evict it...
  serve(registry, envelope_for(8, 0x08), envelope_for(8, 0xEE));
  serve(registry, envelope_for(9, 0x09), envelope_for(9, 0xEE));
  EXPECT_EQ(registry.evictions(), 1u);
  // ...after which the same different-payload request is a clean miss:
  // no conflict, and no stale 0xAA response.
  const auto hit = registry.reserve(envelope_for(7, 0x02), false);
  EXPECT_EQ(hit.state, SlotState::kReserved);
  EXPECT_TRUE(hit.response.payload.empty());
}

// End-to-end: a tiny cache on a live server stays bounded, serves
// byte-identical replays while cached, and re-processes (never serves
// stale bytes for) an evicted session re-used with a different payload.
TEST(SessionCacheLru, ServerEndToEndEvictionNeverServesStaleResponse) {
  ServiceConfig service;
  service.shards = 1;
  service.session_cache_capacity = 2;
  auto server = make_server(service);
  testkit::enroll(server, 1);

  const auto small = upload_of(dip_series(1), 100, 1, kMacKey);
  const auto first = server.handle(small);
  ASSERT_EQ(first.type, net::MessageType::kAnalysisResult);
  // Byte-identical replay while cached: served from cache, bit-equal.
  const auto replayed = server.handle(small);
  EXPECT_EQ(replayed.payload, first.payload);
  EXPECT_EQ(server.stats().replays_served, 1u);

  // Evict session 100 with two newer sessions.
  (void)server.handle(upload_of(dip_series(1), 101, 1, kMacKey));
  (void)server.handle(upload_of(dip_series(1), 102, 1, kMacKey));
  EXPECT_LE(server.devices().cache_size(), 2u);
  EXPECT_GE(server.devices().evictions(), 1u);

  // Session 100 returns with a *different* acquisition: must be analyzed
  // fresh (3 peaks, not the cached 1-peak report) — not a conflict, not
  // a stale replay.
  const auto reused = server.handle(upload_of(dip_series(3), 100, 1, kMacKey));
  ASSERT_EQ(reused.type, net::MessageType::kAnalysisResult);
  const auto report = core::PeakReport::deserialize(reused.payload);
  EXPECT_EQ(report.reference_peak_count(), 3u);
  EXPECT_EQ(server.stats().replays_served, 1u);
}

// --- Many-thread hammer (the TSan target) --------------------------------

// Concurrent enroll / revoke / upload / stats / count traffic over
// a sharded server. Assertions are deliberately loose — the point is
// that TSan observes the full mixed workload with no data races and the
// aggregate counters stay coherent.
TEST(ShardedService, ManyThreadHammer) {
  ServiceConfig service;
  service.shards = 4;
  service.session_cache_capacity = 64;
  auto server = make_server(service);
  const auto series = dip_series(1);

  constexpr std::uint64_t kStableDevices = 4;
  std::vector<std::vector<std::uint8_t>> keys;
  for (std::uint64_t device = 0; device < kStableDevices; ++device)
    keys.push_back(testkit::enroll(server, device));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> uploads_ok{0};

  std::vector<std::thread> threads;
  // Uploaders: each loops over the stable devices with unique sessions.
  for (unsigned worker = 0; worker < 2; ++worker) {
    threads.emplace_back([&, worker] {
      for (std::uint64_t i = 0; i < 40; ++i) {
        const std::uint64_t device = i % kStableDevices;
        const auto response = server.handle(upload_of(
            series, (worker + 1) * 1000 + i, device, keys[device]));
        if (response.type == net::MessageType::kAnalysisResult)
          uploads_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Churner: enrolls and revokes a disjoint device range.
  threads.emplace_back([&] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t device = 100 + (i % 16);
      server.enroll_device(device);
      (void)server.devices().revoke(device);
    }
  });
  // Observer: stats + record counts while everything else runs.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto stats = server.stats();
      EXPECT_LE(stats.requests_processed + stats.replays_served, 80u);
      (void)server.records().record_count();
      (void)server.devices().cache_size();
      std::this_thread::yield();
    }
  });

  for (std::size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_EQ(uploads_ok.load(), 80u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_processed + stats.replays_served, 80u);
  // The stable devices survived the churn.
  for (std::uint64_t device = 0; device < kStableDevices; ++device)
    EXPECT_TRUE(server.devices().lookup(device).has_value());
}

}  // namespace
}  // namespace medsen::cloud
