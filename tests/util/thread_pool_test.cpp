#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace medsen::util {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RespectsGrain) {
  ThreadPool pool(2);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(100, 32, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(b, e);
  });
  // Chunks finish in any order; sorted by start they must tile [0, 100)
  // exactly, and all but the ragged last one must honor the grain.
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  std::size_t next = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto [b, e] = chunks[i];
    EXPECT_EQ(b, next);
    EXPECT_GT(e, b);
    if (i + 1 < chunks.size()) {
      EXPECT_GE(e - b, 32u);
    }
    next = e;
  }
  EXPECT_EQ(next, 100u);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b >= 32) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   16, 1,
                   [](std::size_t, std::size_t) {
                     throw std::runtime_error("first batch fails");
                   }),
               std::runtime_error);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(16, 1, [&](std::size_t b, std::size_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 16u);
}

TEST(ThreadPool, ReuseAcrossManyBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(100, 1, [&](std::size_t b, std::size_t e) {
      long local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(50, 1, [&](std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8u * 50u);
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(257, 1, [&](std::size_t b, std::size_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 257u);
  EXPECT_EQ(pool.concurrency(), 2u);
}

}  // namespace
}  // namespace medsen::util
