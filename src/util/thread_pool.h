#pragma once
// Fixed-size worker pool for the cloud analysis stack. Two properties
// matter more than raw queue throughput here:
//
//  1. *Help-while-waiting*: parallel_for's caller executes queued tasks
//     itself until its batch completes, so nested parallel sections
//     (channels in AnalysisService, detrend windows inside each channel)
//     cannot deadlock on a fixed worker set — a thread blocked on a batch
//     is always draining the queue instead of sleeping on it.
//  2. *Exception propagation*: the first exception thrown by any task of
//     a parallel_for batch is captured and rethrown on the caller after
//     the whole batch has drained, so partially-written scratch state is
//     never observed mid-flight.
//
// Determinism is the callers' contract, not the pool's: work submitted
// here must write to disjoint slots (and combine what tasks share
// serially, in a fixed order) so the result is bit-identical to a serial
// run — see dsp::detrend_into and cloud::AnalysisService.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace medsen::util {

class ThreadPool {
 public:
  /// Spawn `workers` worker threads (0 = one per hardware core, minus the
  /// caller, but at least one). Total concurrency of a parallel_for is
  /// workers + 1 because the calling thread participates.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads plus the participating caller.
  [[nodiscard]] unsigned concurrency() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Split [0, n) into contiguous chunks of at least `grain` indices and
  /// run `body(begin, end)` on each, using the workers plus the calling
  /// thread. Blocks until every chunk has finished; rethrows the first
  /// task exception. n == 0 is a no-op. The chunking never affects
  /// callers that reduce per-chunk results in index order.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Enqueue a single task and return a future for its result. The task
  /// may itself call parallel_for on the same pool.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

 private:
  void enqueue(std::function<void()> task);
  /// Pop and run one queued task; false if the queue was empty.
  bool run_one();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stop_ = false;
};

}  // namespace medsen::util
