#include "cloud/session_auth.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace medsen::cloud {
namespace {

std::vector<std::uint8_t> test_key(std::uint8_t fill) {
  return std::vector<std::uint8_t>(32, fill);
}

TEST(SessionAuth, NoSessionUntilEstablished) {
  SessionAuthTable table(4);
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kNoSession);
  EXPECT_FALSE(table.session_key(1, 100).has_value());
  EXPECT_EQ(table.active_sessions(), 0u);

  table.establish(1, 100, test_key(0xaa));
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kFresh);
  ASSERT_TRUE(table.session_key(1, 100).has_value());
  EXPECT_EQ(*table.session_key(1, 100), test_key(0xaa));
  EXPECT_EQ(table.active_sessions(), 1u);
}

TEST(SessionAuth, WrongSessionIdIsNoSession) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  EXPECT_EQ(table.classify(1, 999, 1), CounterStatus::kNoSession);
  EXPECT_FALSE(table.session_key(1, 999).has_value());
}

TEST(SessionAuth, CounterZeroIsNeverSessionPlane) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  // Counter 0 is the legacy/handshake plane; the session plane counts
  // from 1, so 0 can never be fresh here.
  EXPECT_EQ(table.classify(1, 100, 0), CounterStatus::kStale);
}

TEST(SessionAuth, MonotonicCommitAndReplay) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));

  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kFresh);
  table.commit(1, 100, 1);
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kReplay);
  EXPECT_EQ(table.classify(1, 100, 2), CounterStatus::kFresh);
}

// ARQ retransmissions can deliver counters out of order; the window must
// accept a skipped counter exactly once.
TEST(SessionAuth, WindowToleratesOutOfOrderDelivery) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  table.commit(1, 100, 3);  // 1 and 2 still in flight

  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kFresh);
  EXPECT_EQ(table.classify(1, 100, 2), CounterStatus::kFresh);
  table.commit(1, 100, 1);
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kReplay);
  EXPECT_EQ(table.classify(1, 100, 2), CounterStatus::kFresh);
  EXPECT_EQ(table.classify(1, 100, 3), CounterStatus::kReplay);
}

TEST(SessionAuth, BelowWindowFloorIsStale) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  table.commit(1, 100, 100);

  // 100 - 64 = 36: ages >= kWindowSize are unservable.
  EXPECT_EQ(table.classify(1, 100, 36), CounterStatus::kStale);
  EXPECT_EQ(table.classify(1, 100, 37), CounterStatus::kFresh);
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kStale);
}

// A jump wider than the window must clear every stale bit — old bits
// left behind would mark never-seen counters as replays.
TEST(SessionAuth, WideJumpClearsTheWindow) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  table.commit(1, 100, 1);
  table.commit(1, 100, 2);
  table.commit(1, 100, 500);

  EXPECT_EQ(table.classify(1, 100, 500), CounterStatus::kReplay);
  EXPECT_EQ(table.classify(1, 100, 499), CounterStatus::kFresh);
  EXPECT_EQ(table.classify(1, 100, 437), CounterStatus::kFresh);
  EXPECT_EQ(table.classify(1, 100, 436), CounterStatus::kStale);
}

// Classification must not mutate: an admission-shed command retries with
// the same counter, so only commit() burns it.
TEST(SessionAuth, ClassifyIsPure) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kFresh);
}

TEST(SessionAuth, ReKeyReplacesStateAtomically) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  table.commit(1, 100, 7);

  table.establish(1, 200, test_key(0xbb));
  // The old session is gone...
  EXPECT_EQ(table.classify(1, 100, 8), CounterStatus::kNoSession);
  EXPECT_FALSE(table.session_key(1, 100).has_value());
  // ...and the new one counts from scratch.
  EXPECT_EQ(table.classify(1, 200, 1), CounterStatus::kFresh);
  EXPECT_EQ(*table.session_key(1, 200), test_key(0xbb));
  EXPECT_EQ(table.active_sessions(), 1u);
}

TEST(SessionAuth, CommitAfterDropDoesNotResurrect) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  table.drop(1);
  table.commit(1, 100, 1);  // re-key raced a slow command: must be a no-op
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kNoSession);
  EXPECT_EQ(table.active_sessions(), 0u);
}

TEST(SessionAuth, DropAllClearsEveryDevice) {
  SessionAuthTable table(4);
  table.establish(1, 100, test_key(0xaa));
  table.establish(2, 200, test_key(0xbb));
  EXPECT_EQ(table.active_sessions(), 2u);
  table.drop_all();
  EXPECT_EQ(table.active_sessions(), 0u);
  EXPECT_EQ(table.classify(1, 100, 1), CounterStatus::kNoSession);
  EXPECT_EQ(table.classify(2, 200, 1), CounterStatus::kNoSession);
}

}  // namespace
}  // namespace medsen::cloud
