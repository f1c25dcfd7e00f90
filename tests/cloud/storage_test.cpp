#include "cloud/storage.h"

#include <gtest/gtest.h>

#include <thread>

namespace medsen::cloud {
namespace {

auth::CytoCode code_of(std::initializer_list<std::uint8_t> levels) {
  auth::CytoCode code;
  code.levels = levels;
  return code;
}

TEST(RecordStore, StoreAndFetch) {
  RecordStore store;
  store.store(code_of({1, 2}), {10, {0xAA}});
  store.store(code_of({1, 2}), {11, {0xBB}});
  const auto records = store.fetch(code_of({1, 2}));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, 10u);
  EXPECT_EQ(records[1].session_id, 11u);
}

TEST(RecordStore, UnknownIdentifierEmpty) {
  RecordStore store;
  EXPECT_TRUE(store.fetch(code_of({3, 3})).empty());
  EXPECT_FALSE(store.latest(code_of({3, 3})).has_value());
}

TEST(RecordStore, LatestReturnsNewest) {
  RecordStore store;
  store.store(code_of({0, 1}), {1, {}});
  store.store(code_of({0, 1}), {2, {}});
  const auto latest = store.latest(code_of({0, 1}));
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->session_id, 2u);
}

TEST(RecordStore, IdentifiersIsolated) {
  RecordStore store;
  store.store(code_of({1, 0}), {1, {}});
  store.store(code_of({0, 1}), {2, {}});
  EXPECT_EQ(store.identifier_count(), 2u);
  EXPECT_EQ(store.record_count(), 2u);
  EXPECT_EQ(store.fetch(code_of({1, 0})).size(), 1u);
}

TEST(RecordStore, BlobContentPreserved) {
  RecordStore store;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  store.store(code_of({2, 2}), {7, blob});
  EXPECT_EQ(store.latest(code_of({2, 2}))->encrypted_result, blob);
}

TEST(RecordStore, SnapshotIsAConsistentCopy) {
  RecordStore store;
  store.store(code_of({1, 2}), {10, {0xAA}});
  auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  // Mutating the snapshot (or the store) must not affect the other.
  snapshot.begin()->second.push_back({99, {}});
  store.store(code_of({1, 2}), {11, {0xBB}});
  EXPECT_EQ(snapshot.begin()->second.size(), 2u);
  EXPECT_EQ(store.fetch(code_of({1, 2})).size(), 2u);
  EXPECT_EQ(store.fetch(code_of({1, 2})).back().session_id, 11u);
}

TEST(RecordStore, RestoreRebuildsStateFromSnapshot) {
  RecordStore original;
  original.store(code_of({1, 1}), {5, {0xCC}});
  RecordStore rebuilt;
  for (auto& [key, records] : original.snapshot())
    rebuilt.restore(key, std::move(records));
  EXPECT_EQ(rebuilt.record_count(), 1u);
  EXPECT_EQ(rebuilt.latest(code_of({1, 1}))->session_id, 5u);
}

TEST(RecordStore, ConcurrentStoreAndReadIsRaceFree) {
  RecordStore store;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&store, t] {
      for (int i = 0; i < 25; ++i) {
        store.store(code_of({static_cast<std::uint8_t>(t), 1}),
                    {static_cast<std::uint64_t>(i), {0xEE}});
        (void)store.record_count();
        (void)store.snapshot();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(store.record_count(), 100u);
  EXPECT_EQ(store.identifier_count(), 4u);
}

}  // namespace
}  // namespace medsen::cloud
