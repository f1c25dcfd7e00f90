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
  // Readers get copies, never references into the store: what fetch()
  // returned is a snapshot later stores do not change, and changing it
  // does not reach the store.
  RecordStore store;
  store.store(code_of({1, 2}), {10, {0xAA}});
  auto snapshot = store.fetch(code_of({1, 2}));
  ASSERT_EQ(snapshot.size(), 1u);
  snapshot.push_back({99, {}});
  store.store(code_of({1, 2}), {11, {0xBB}});
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.back().session_id, 99u);
  EXPECT_EQ(store.fetch(code_of({1, 2})).size(), 2u);
  EXPECT_EQ(store.fetch(code_of({1, 2})).back().session_id, 11u);
}

TEST(RecordStore, RestoreRebuildsStateFromSnapshot) {
  // restore() reinstalls an identifier's list as an older build's
  // records.snap holds it, replacing what was there; store() adds to it.
  RecordStore rebuilt;
  rebuilt.store(code_of({1, 1}), {4, {0xBB}});
  rebuilt.restore(code_of({1, 1}).to_string(), {{5, {0xCC}}});
  rebuilt.store(code_of({1, 1}), {6, {0xDD}});
  EXPECT_EQ(rebuilt.record_count(), 2u);
  EXPECT_EQ(rebuilt.fetch(code_of({1, 1})).front().session_id, 5u);
  EXPECT_EQ(rebuilt.latest(code_of({1, 1}))->session_id, 6u);
}

TEST(RecordStore, LogHeldRecordsReadThroughTheAttachedLog) {
  // index() keeps only a locator; fetch() and latest() read such records
  // through the attached log, in store order among the records held in
  // memory, and the counts count both alike.
  RecordStore store;
  std::vector<FrameLocator> asked;
  store.attach_log([&](const std::string& key, std::uint64_t session_id,
                       const FrameLocator& at) {
    EXPECT_EQ(key, session_id == 3 ? code_of({2, 2}).to_string()
                                   : code_of({1, 1}).to_string());
    asked.push_back(at);
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(session_id),
                                     static_cast<std::uint8_t>(at.offset)};
  });
  store.restore(code_of({1, 1}).to_string(), {{1, {0xAA}}});
  store.index(code_of({1, 1}).to_string(), 2, {7, 100, 1, 10});
  store.index(code_of({2, 2}).to_string(), 3, {8, 200, 2, 10});
  EXPECT_EQ(store.record_count(), 3u);
  EXPECT_EQ(store.identifier_count(), 2u);
  EXPECT_TRUE(asked.empty());  // nothing is read until fetched
  const auto records = store.fetch(code_of({1, 1}));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].encrypted_result, (std::vector<std::uint8_t>{0xAA}));
  EXPECT_EQ(records[1].session_id, 2u);
  EXPECT_EQ(records[1].encrypted_result, (std::vector<std::uint8_t>{2, 100}));
  EXPECT_EQ(store.latest(code_of({2, 2}))->encrypted_result,
            (std::vector<std::uint8_t>{3, 200}));
  ASSERT_EQ(asked.size(), 2u);
  EXPECT_EQ(asked[0].lsn, 7u);
  EXPECT_EQ(asked[1].generation, 2u);
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
        (void)store.fetch(code_of({static_cast<std::uint8_t>(3 - t), 1}));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(store.record_count(), 100u);
  EXPECT_EQ(store.identifier_count(), 4u);
}

}  // namespace
}  // namespace medsen::cloud
