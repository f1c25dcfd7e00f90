#include "cloud/dispatch.h"

#include "crypto/cmac.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

namespace medsen::cloud {
namespace {

const std::vector<std::uint8_t> kMaster(16, 0x11);

std::vector<std::uint8_t> test_key(std::uint8_t fill) {
  return std::vector<std::uint8_t>(32, fill);
}

net::Envelope command(std::uint64_t device, std::uint64_t session,
                      std::uint32_t counter, std::uint8_t byte = 0) {
  return net::make_envelope(net::MessageType::kSignalUpload, session, device,
                            {byte}, test_key(0xaa), counter);
}

/// The session plane's verdict on a counter, leaving no reservation
/// behind: kReserved is fresh, kStale is refused (seen, below the
/// window, or no live session).
SlotState classify(DeviceRegistry& registry, std::uint64_t device,
                   std::uint64_t session, std::uint32_t counter) {
  const auto request = command(device, session, counter);
  const auto state = registry.reserve(request, true).state;
  if (state == SlotState::kReserved) registry.release(request);
  return state;
}

/// Install a session the way a completed handshake does.
void establish(DeviceRegistry& registry, std::uint64_t device,
               std::uint64_t session, std::vector<std::uint8_t> key) {
  registry.enroll(device);
  const auto hello = net::make_envelope(net::MessageType::kAuthChallenge,
                                        session, device, {}, key);
  ASSERT_EQ(registry.reserve(hello, false).state, SlotState::kReserved);
  registry.complete(hello, hello, false, 0.0,
                    util::SecretBytes(std::move(key)));
}

/// Burn a counter as a completed command does, without caching it.
void commit(DeviceRegistry& registry, std::uint64_t device,
            std::uint64_t session, std::uint32_t counter) {
  const auto request = command(device, session, counter);
  registry.complete(request, request, true, 0.0);
}

TEST(DeviceRegistry, ProvisionLookupRevoke) {
  DeviceRegistry registry;
  registry.set_master_key(0, kMaster);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.lookup(7).has_value());

  registry.enroll(7);
  ASSERT_TRUE(registry.lookup(7).has_value());
  EXPECT_EQ(*registry.lookup(7), crypto::diversify_device_key(kMaster, 7, 0));
  EXPECT_EQ(registry.size(), 1u);

  // A new master epoch re-keys the device without re-enrolling it.
  const std::vector<std::uint8_t> next(16, 0x22);
  registry.set_master_key(1, next);
  EXPECT_EQ(*registry.lookup(7), crypto::diversify_device_key(next, 7, 1));
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_TRUE(registry.revoke(7));
  EXPECT_FALSE(registry.revoke(7));
  EXPECT_FALSE(registry.lookup(7).has_value());
}

TEST(DeviceRegistry, ConcurrentProvisionAndLookup) {
  DeviceRegistry registry;
  registry.set_master_key(0, kMaster);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < 50; ++i) {
        const auto id = static_cast<std::uint64_t>(t * 50 + i);
        registry.enroll(id);
        EXPECT_TRUE(registry.lookup(id).has_value());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.size(), 200u);
}

// --- The session window ----------------------------------------------------

TEST(SessionAuth, NoSessionUntilEstablished) {
  DeviceRegistry registry(4);
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kStale);
  EXPECT_FALSE(registry.session_key(1, 100).has_value());
  EXPECT_EQ(registry.active_sessions(), 0u);

  establish(registry, 1, 100, test_key(0xaa));
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kReserved);
  ASSERT_TRUE(registry.session_key(1, 100).has_value());
  EXPECT_EQ(*registry.session_key(1, 100), test_key(0xaa));
  EXPECT_EQ(registry.active_sessions(), 1u);
}

TEST(SessionAuth, WrongSessionIdIsNoSession) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  EXPECT_EQ(classify(registry, 1, 999, 1), SlotState::kStale);
  EXPECT_FALSE(registry.session_key(1, 999).has_value());
}

TEST(SessionAuth, CounterZeroIsNeverSessionPlane) {
  DeviceRegistry registry(/*shards=*/1, /*cache_capacity=*/1);
  establish(registry, 1, 100, test_key(0xaa));
  // Evict the handshake's own (1, 100, 0) slot with another exchange.
  const auto other = command(2, 1, 0);
  ASSERT_EQ(registry.reserve(other, false).state, SlotState::kReserved);
  registry.complete(other, other, false, 0.0);
  // Counter 0 is the legacy/handshake plane; the session plane counts
  // from 1, so 0 can never be fresh here.
  EXPECT_EQ(classify(registry, 1, 100, 0), SlotState::kStale);
}

TEST(SessionAuth, MonotonicCommitAndReplay) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));

  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kReserved);
  commit(registry, 1, 100, 1);
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kStale);
  EXPECT_EQ(classify(registry, 1, 100, 2), SlotState::kReserved);

  // While its exchange is cached, a byte-identical copy of a completed
  // command is a replay, not a window refusal.
  const auto second = command(1, 100, 2);
  ASSERT_EQ(registry.reserve(second, true).state, SlotState::kReserved);
  registry.complete(second, command(1, 100, 2, 0xee), true, 0.0);
  const auto replay = registry.reserve(second, true);
  EXPECT_EQ(replay.state, SlotState::kReplay);
  EXPECT_EQ(replay.response.payload, std::vector<std::uint8_t>{0xee});
}

// ARQ retransmissions can deliver counters out of order; the window must
// accept a skipped counter exactly once.
TEST(SessionAuth, WindowToleratesOutOfOrderDelivery) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  commit(registry, 1, 100, 3);  // 1 and 2 still in flight

  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kReserved);
  EXPECT_EQ(classify(registry, 1, 100, 2), SlotState::kReserved);
  commit(registry, 1, 100, 1);
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kStale);
  EXPECT_EQ(classify(registry, 1, 100, 2), SlotState::kReserved);
  EXPECT_EQ(classify(registry, 1, 100, 3), SlotState::kStale);
}

TEST(SessionAuth, BelowWindowFloorIsStale) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  commit(registry, 1, 100, 100);

  // 100 - 64 = 36: ages >= kWindowSize are unservable.
  EXPECT_EQ(classify(registry, 1, 100, 36), SlotState::kStale);
  EXPECT_EQ(classify(registry, 1, 100, 37), SlotState::kReserved);
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kStale);
}

// A jump wider than the window must clear every stale bit — old bits
// left behind would mark never-seen counters as replays.
TEST(SessionAuth, WideJumpClearsTheWindow) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  commit(registry, 1, 100, 1);
  commit(registry, 1, 100, 2);
  commit(registry, 1, 100, 500);

  EXPECT_EQ(classify(registry, 1, 100, 500), SlotState::kStale);
  EXPECT_EQ(classify(registry, 1, 100, 499), SlotState::kReserved);
  EXPECT_EQ(classify(registry, 1, 100, 437), SlotState::kReserved);
  EXPECT_EQ(classify(registry, 1, 100, 436), SlotState::kStale);
}

// A released reservation burns nothing: an admission-shed or rejected
// command retries with the same counter, so only complete() burns it.
TEST(SessionAuth, ClassifyIsPure) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  const std::size_t cached = registry.cache_size();
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kReserved);
  EXPECT_EQ(registry.cache_size(), cached);
}

TEST(SessionAuth, ReKeyReplacesStateAtomically) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  commit(registry, 1, 100, 7);

  establish(registry, 1, 200, test_key(0xbb));
  // The old session is gone...
  EXPECT_EQ(classify(registry, 1, 100, 8), SlotState::kStale);
  EXPECT_FALSE(registry.session_key(1, 100).has_value());
  // ...and the new one counts from scratch.
  EXPECT_EQ(classify(registry, 1, 200, 1), SlotState::kReserved);
  EXPECT_EQ(*registry.session_key(1, 200), test_key(0xbb));
  EXPECT_EQ(registry.active_sessions(), 1u);
}

TEST(SessionAuth, CommitAfterDropDoesNotResurrect) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  registry.drop_sessions();
  commit(registry, 1, 100, 1);  // re-key raced a slow command: a no-op
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kStale);
  EXPECT_EQ(registry.active_sessions(), 0u);
}

TEST(SessionAuth, DropAllClearsEveryDevice) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  establish(registry, 2, 200, test_key(0xbb));
  EXPECT_EQ(registry.active_sessions(), 2u);
  registry.drop_sessions();
  EXPECT_EQ(registry.active_sessions(), 0u);
  EXPECT_EQ(classify(registry, 1, 100, 1), SlotState::kStale);
  EXPECT_EQ(classify(registry, 2, 200, 1), SlotState::kStale);
}

// --- Reservations -----------------------------------------------------------

// The pending slot is the reservation: until its request completes, a
// byte-identical copy is in flight and a different request conflicts.
TEST(DeviceRegistry, PendingSlotIsTheReservation) {
  DeviceRegistry registry(4);
  const auto request = command(1, 5, 0, 0x01);
  ASSERT_EQ(registry.reserve(request, false).state, SlotState::kReserved);
  EXPECT_EQ(registry.reserve(request, false).state, SlotState::kInFlight);
  EXPECT_EQ(registry.reserve(command(1, 5, 0, 0x02), false).state,
            SlotState::kConflict);

  registry.complete(request, command(1, 5, 0, 0xee), false, 0.0);
  const auto replay = registry.reserve(request, false);
  EXPECT_EQ(replay.state, SlotState::kReplay);
  EXPECT_EQ(replay.response.payload, std::vector<std::uint8_t>{0xee});

  // A released slot is free for any request.
  const auto failed = command(1, 6, 0, 0x03);
  ASSERT_EQ(registry.reserve(failed, false).state, SlotState::kReserved);
  registry.release(failed);
  EXPECT_EQ(registry.reserve(command(1, 6, 0, 0x04), false).state,
            SlotState::kReserved);

  const auto stats = registry.stats();
  EXPECT_EQ(stats.requests_processed, 1u);
  EXPECT_EQ(stats.replays_served, 1u);
  EXPECT_EQ(stats.errors_returned, 3u);  // in flight, conflict, release
}

// Pending slots neither count against the LRU bound nor get evicted: a
// completed exchange can push out only other completed ones.
TEST(DeviceRegistry, PendingSlotsAreNeverEvicted) {
  DeviceRegistry registry(1, 1);
  const auto slow = command(1, 1, 0, 0x01);
  const auto fast = command(1, 2, 0, 0x02);
  ASSERT_EQ(registry.reserve(slow, false).state, SlotState::kReserved);
  ASSERT_EQ(registry.reserve(fast, false).state, SlotState::kReserved);
  registry.complete(fast, fast, false, 0.0);
  EXPECT_EQ(registry.evictions(), 0u);
  EXPECT_EQ(registry.reserve(slow, false).state, SlotState::kInFlight);
  EXPECT_EQ(registry.reserve(fast, false).state, SlotState::kReplay);

  registry.complete(slow, slow, false, 0.0);
  EXPECT_EQ(registry.evictions(), 1u);
  EXPECT_EQ(registry.cache_size(), 1u);
  EXPECT_EQ(registry.reserve(slow, false).state, SlotState::kReplay);
}

// Revocation and re-keying happen under the device's shard lock, so a
// handshake or command that raced them cannot leave stale state behind.
TEST(DeviceRegistry, CompletionAfterRevocationInstallsNoSession) {
  DeviceRegistry registry(4);
  registry.set_master_key(0, kMaster);
  registry.enroll(3);
  const auto hello = net::make_envelope(net::MessageType::kAuthChallenge, 9,
                                        3, {}, test_key(0x01));
  ASSERT_EQ(registry.reserve(hello, false).state, SlotState::kReserved);
  EXPECT_TRUE(registry.revoke(3));
  registry.complete(hello, hello, false, 0.0,
                    util::SecretBytes(test_key(0xcc)));
  EXPECT_EQ(registry.active_sessions(), 0u);
  EXPECT_EQ(registry.stats().handshakes_completed, 1u);

  establish(registry, 3, 10, test_key(0xdd));
  EXPECT_EQ(*registry.session_key(3, 10), test_key(0xdd));
}

// --- Retirement ----------------------------------------------------------

// A completed session-plane exchange stays cached only while its counter
// is inside the live session's window: the burn that slides a counter
// out drops its slot, and a re-key or revocation drops the old window.
TEST(DeviceRegistry, CachedCommandsLeaveWithTheWindow) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  for (std::uint32_t counter = 1; counter <= 65; ++counter) {
    const auto request = command(1, 100, counter);
    ASSERT_EQ(registry.reserve(request, true).state, SlotState::kReserved);
    registry.complete(request, request, true, 0.0);
  }
  // The handshake's slot and counters 2..65; 1 slid out with the burn
  // of 65 and is refused by the window, as after an eviction.
  EXPECT_EQ(registry.cache_size(), 1u + DeviceRegistry::kWindowSize);
  EXPECT_EQ(registry.reserve(command(1, 100, 1), true).state,
            SlotState::kStale);
  EXPECT_EQ(registry.reserve(command(1, 100, 2), true).state,
            SlotState::kReplay);
  EXPECT_EQ(registry.evictions(), 0u);

  establish(registry, 1, 200, test_key(0xbb));
  EXPECT_EQ(registry.cache_size(), 2u);  // two handshakes
  const auto request = command(1, 200, 1);
  ASSERT_EQ(registry.reserve(request, true).state, SlotState::kReserved);
  registry.complete(request, request, true, 0.0);
  EXPECT_EQ(registry.cache_size(), 3u);
  EXPECT_TRUE(registry.revoke(1));
  EXPECT_EQ(registry.cache_size(), 2u);
}

TEST(DeviceRegistry, DropSessionsRetiresEverySessionSlot) {
  DeviceRegistry registry(4);
  for (std::uint64_t device = 1; device <= 3; ++device) {
    establish(registry, device, 100 + device, test_key(0xaa));
    const auto request = command(device, 100 + device, 1);
    ASSERT_EQ(registry.reserve(request, true).state, SlotState::kReserved);
    registry.complete(request, request, true, 0.0);
  }
  const auto legacy = command(4, 1, 0);
  ASSERT_EQ(registry.reserve(legacy, false).state, SlotState::kReserved);
  registry.complete(legacy, legacy, false, 0.0);
  EXPECT_EQ(registry.cache_size(), 7u);
  registry.drop_sessions();
  EXPECT_EQ(registry.cache_size(), 4u);  // handshakes and the legacy one
  EXPECT_EQ(registry.reserve(legacy, false).state, SlotState::kReplay);
}

/// Reserve a command on session 100, let `race` run while it is in
/// flight, then complete it: the completion must free its reservation
/// and cache nothing, so a copy of it is refused, not served.
void expect_late_completion_caches_nothing(
    const std::function<void(DeviceRegistry&)>& race) {
  DeviceRegistry registry(4);
  establish(registry, 1, 100, test_key(0xaa));
  const auto slow = command(1, 100, 1);
  ASSERT_EQ(registry.reserve(slow, true).state, SlotState::kReserved);
  race(registry);
  const std::size_t with_reservation = registry.cache_size();
  registry.complete(slow, command(1, 100, 1, 0xee), true, 0.0);
  EXPECT_EQ(registry.cache_size(), with_reservation - 1);
  EXPECT_EQ(registry.reserve(slow, true).state, SlotState::kStale);
}

TEST(DeviceRegistry, CompletionRacingAReKeyCachesNothing) {
  expect_late_completion_caches_nothing([](DeviceRegistry& registry) {
    establish(registry, 1, 200, test_key(0xbb));
  });
}

TEST(DeviceRegistry, CompletionRacingARevocationCachesNothing) {
  expect_late_completion_caches_nothing(
      [](DeviceRegistry& registry) { EXPECT_TRUE(registry.revoke(1)); });
}

TEST(DeviceRegistry, CompletionRacingTheWindowCachesNothing) {
  expect_late_completion_caches_nothing([](DeviceRegistry& registry) {
    for (std::uint32_t counter = 2; counter <= 65; ++counter) {
      const auto request = command(1, 100, counter);
      ASSERT_EQ(registry.reserve(request, true).state, SlotState::kReserved);
      registry.complete(request, request, true, 0.0);
    }
  });
}

TEST(AdmissionGate, UnboundedAdmitsEverything) {
  AdmissionGate gate(0);
  auto a = gate.try_enter();
  auto b = gate.try_enter();
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(gate.shed_total(), 0u);
}

TEST(AdmissionGate, ShedsPastTheLimitAndRecovers) {
  AdmissionGate gate(2);
  auto a = gate.try_enter();
  auto b = gate.try_enter();
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(gate.in_flight(), 2u);

  auto c = gate.try_enter();
  EXPECT_FALSE(c.admitted());
  EXPECT_EQ(gate.shed_total(), 1u);

  a.release();
  EXPECT_EQ(gate.in_flight(), 1u);
  auto d = gate.try_enter();
  EXPECT_TRUE(d.admitted());
}

TEST(AdmissionGate, TicketReleaseIsIdempotentAndMoveSafe) {
  AdmissionGate gate(1);
  auto a = gate.try_enter();
  EXPECT_TRUE(a.admitted());
  auto moved = std::move(a);
  EXPECT_TRUE(moved.admitted());
  EXPECT_FALSE(a.admitted());  // NOLINT(bugprone-use-after-move): on purpose
  moved.release();
  moved.release();  // double release must not underflow
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(AdmissionGate, TicketReleasesOnScopeExit) {
  AdmissionGate gate(1);
  {
    auto a = gate.try_enter();
    EXPECT_TRUE(a.admitted());
    EXPECT_EQ(gate.in_flight(), 1u);
  }
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(ServiceResult, SuccessAndFailureFactories) {
  auto ok = ServiceResult::success(net::MessageType::kAnalysisResult,
                                   {1, 2, 3});
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.response_type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(ok.response_payload, (std::vector<std::uint8_t>{1, 2, 3}));

  auto bad = ServiceResult::failure(net::ErrorCode::kQualityRejected,
                                    "saturated", 3);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, net::ErrorCode::kQualityRejected);
  EXPECT_EQ(bad.error_subcode, 3u);
  EXPECT_EQ(bad.detail, "saturated");
}

}  // namespace
}  // namespace medsen::cloud
