// The exchange cache under churn, against a model LRU.
//
// One single-shard DeviceRegistry is driven through a seeded random walk
// over a small key space of counter-0 slots (a few devices, a hundred
// sessions each). A step is one of:
//  - a fresh request, reserved and then completed with a response of
//    0, 1, 80 or ~6,700 payload bytes;
//  - a request reserved and then released;
//  - a request left pending, later completed or released;
//  - identical and conflicting copies of pending and completed slots;
//  - byte-identical replays of any request completed so far.
// A model LRU of the same capacity predicts every answer: the replayed
// bytes, kInFlight, kConflict, or a fresh miss once the slot was
// evicted. It also predicts cache_size() (pending reservations
// included) and evictions() after every step. One capacity evicts on
// most steps; the other lets the cache grow through several doublings
// of its index before it starts to evict.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "cloud/dispatch.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevices = 3;
constexpr std::uint64_t kSessionsPerDevice = 100;
constexpr int kSteps = 20000;
constexpr std::size_t kMaxOpen = 4;
constexpr std::size_t kPayloadSizes[] = {0, 1, 80, 6700};

/// (device, session); the counter is always 0.
using Key = std::pair<std::uint64_t, std::uint64_t>;

const std::vector<std::uint8_t> kMacKey(32, 0x5c);

/// The registry's behaviour, restated as plainly as possible: completed
/// exchanges in one recency list, pending reservations apart.
class ModelLru {
 public:
  explicit ModelLru(std::size_t capacity) : capacity_(capacity) {}

  /// What reserve() answers for `request`, and its side effect on the
  /// model. `replayed` receives the cached response on kReplay.
  SlotState reserve(const net::Envelope& request, net::Envelope& replayed) {
    const Key key = key_of(request);
    if (const auto it = pending_.find(key); it != pending_.end())
      return it->second.mac == request.mac ? SlotState::kInFlight
                                            : SlotState::kConflict;
    if (const auto it = completed_.find(key); it != completed_.end()) {
      if (it->second.request.mac != request.mac) return SlotState::kConflict;
      lru_.splice(lru_.begin(), lru_, it->second.position);
      replayed = it->second.response;
      return SlotState::kReplay;
    }
    pending_.emplace(key, request);
    return SlotState::kReserved;
  }

  void complete(const net::Envelope& request, const net::Envelope& response) {
    const Key key = key_of(request);
    ASSERT_EQ(pending_.erase(key), 1u);
    lru_.push_front(key);
    completed_.emplace(key, Completed{request, response, lru_.begin()});
    while (completed_.size() > capacity_) {
      completed_.erase(lru_.back());
      lru_.pop_back();
      ++evictions_;
    }
  }

  void release(const net::Envelope& request) {
    ASSERT_EQ(pending_.erase(key_of(request)), 1u);
  }

  [[nodiscard]] std::size_t cache_size() const {
    return completed_.size() + pending_.size();
  }
  [[nodiscard]] std::size_t completed() const { return completed_.size(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// The request of a completed slot picked by `index` (mod the size).
  [[nodiscard]] const net::Envelope& completed_request(
      std::size_t index) const {
    auto it = completed_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(index % completed_.size()));
    return it->second.request;
  }

 private:
  struct Completed {
    net::Envelope request;
    net::Envelope response;
    std::list<Key>::iterator position;
  };

  static Key key_of(const net::Envelope& request) {
    return {request.device_id, request.session_id};
  }

  std::size_t capacity_;
  std::list<Key> lru_;  ///< front = most recently touched
  std::map<Key, Completed> completed_;
  std::map<Key, net::Envelope> pending_;
  std::uint64_t evictions_ = 0;
};

/// What a reserved request does next.
enum class Then : std::uint8_t { kComplete, kRelease, kKeepOpen };

class Churn {
 public:
  Churn(std::size_t capacity, std::uint64_t seed)
      : registry_(/*shards=*/1, capacity), model_(capacity), rng_(seed) {
    for (std::uint64_t d = 1; d <= kDevices; ++d)
      for (std::uint64_t s = 0; s < kSessionsPerDevice; ++s)
        keys_.emplace_back(d * 0x9e3779b97f4a7c15ull, rng_());
  }

  void step(int index) {
    const std::uint64_t roll = pick(100);
    if (roll < 30) {
      send(request_for(random_key()), Then::kComplete);
    } else if (roll < 40) {
      send(request_for(random_key()), Then::kRelease);
    } else if (roll < 50) {
      if (open_.size() < kMaxOpen)
        send(request_for(random_key()), Then::kKeepOpen);
      else
        close_one();
    } else if (roll < 58) {
      close_one();
    } else if (roll < 68) {
      copy_pending();
    } else if (roll < 78) {
      conflict_completed();
    } else if (roll < 90 && model_.completed() != 0) {
      // A copy of a slot the model still holds: a replay.
      send(model_.completed_request(pick(model_.completed())),
           Then::kComplete);
    } else if (!history_.empty()) {
      // Any request completed so far: a replay while it is cached, a
      // conflict if a different request took its slot since, a fresh
      // miss once it was evicted.
      send(history_[pick(history_.size())], Then::kComplete);
    }
    ASSERT_EQ(registry_.cache_size(), model_.cache_size())
        << "after step " << index;
    ASSERT_EQ(registry_.evictions(), model_.evictions())
        << "after step " << index;
    peak_completed_ = std::max(peak_completed_, model_.completed());
  }

  /// Every answer was reached, and the cache did what the capacity
  /// promised.
  void check_coverage(std::size_t min_peak, std::uint64_t min_evictions) {
    for (const auto state : {SlotState::kReserved, SlotState::kReplay,
                             SlotState::kInFlight, SlotState::kConflict})
      EXPECT_GT(answered_[state], 0u)
          << "no answer " << static_cast<int>(state);
    EXPECT_GT(misses_after_eviction_, 0u);
    EXPECT_GE(peak_completed_, min_peak);
    EXPECT_GE(model_.evictions(), min_evictions);
    for (const std::size_t size : kPayloadSizes)
      EXPECT_GT(replayed_sizes_[size], 0u) << "no replay of " << size << " B";
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  Key random_key() { return keys_[pick(keys_.size())]; }

  /// A request on `key` with one of three payloads, so two requests on
  /// one slot are either byte-identical or conflicting.
  net::Envelope request_for(const Key& key) {
    const auto variant = static_cast<std::uint8_t>(pick(3));
    return net::make_envelope(net::MessageType::kSignalUpload, key.second,
                              key.first, {variant, 0x42}, kMacKey);
  }

  /// A response on the request's (device, session, counter), carrying
  /// 0, 1, 80 or ~6,700 payload bytes.
  net::Envelope response_for(const net::Envelope& request) {
    const std::uint64_t roll = pick(10);
    const std::size_t size = kPayloadSizes[roll < 1 ? 3 : roll % 3];
    std::vector<std::uint8_t> payload(size);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng_());
    return net::make_envelope(net::MessageType::kAnalysisResult,
                              request.session_id, request.device_id,
                              std::move(payload), kMacKey, request.counter);
  }

  void send(net::Envelope request, Then then) {
    net::Envelope expected;
    const bool completed_before =
        completed_ever_.count({request.device_id, request.session_id}) != 0;
    const SlotState want = model_.reserve(request, expected);
    const Reservation got = registry_.reserve(request, false);
    ASSERT_EQ(got.state, want);
    ++answered_[want];
    if (want == SlotState::kReplay) {
      EXPECT_EQ(got.response.serialize(), expected.serialize());
      ++replayed_sizes_[expected.payload.size()];
      return;
    }
    if (want != SlotState::kReserved) return;
    misses_after_eviction_ += completed_before;
    switch (then) {
      case Then::kComplete:
        finish(request);
        break;
      case Then::kRelease:
        registry_.release(request);
        model_.release(request);
        break;
      case Then::kKeepOpen:
        open_.push_back(request);
        break;
    }
  }

  /// Complete a reserved request with a fresh response.
  void finish(const net::Envelope& request) {
    const auto response = response_for(request);
    registry_.complete(request, response, false, 0.0);
    model_.complete(request, response);
    completed_ever_.insert({request.device_id, request.session_id});
    history_.push_back(request);
  }

  /// Complete or release one of the open reservations.
  void close_one() {
    if (open_.empty()) return;
    const std::size_t at = pick(open_.size());
    const net::Envelope request = open_[at];
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(at));
    if (pick(10) < 7) {
      finish(request);
    } else {
      registry_.release(request);
      model_.release(request);
    }
  }

  /// An identical or a conflicting copy of a pending reservation.
  void copy_pending() {
    if (open_.empty()) return;
    const net::Envelope& open = open_[pick(open_.size())];
    if (pick(2) == 0) {
      send(open, Then::kComplete);  // in flight
    } else {
      send(conflicting(open), Then::kComplete);
    }
  }

  /// A different request on a completed slot.
  void conflict_completed() {
    if (model_.completed() == 0) return;
    send(conflicting(model_.completed_request(pick(model_.completed()))),
         Then::kComplete);
  }

  static net::Envelope conflicting(const net::Envelope& request) {
    auto payload = request.payload;
    payload[0] = static_cast<std::uint8_t>((payload[0] + 1) % 3);
    return net::make_envelope(request.type, request.session_id,
                              request.device_id, std::move(payload), kMacKey,
                              request.counter);
  }

  DeviceRegistry registry_;
  ModelLru model_;
  std::mt19937_64 rng_;
  std::vector<Key> keys_;
  std::vector<net::Envelope> open_;
  std::vector<net::Envelope> history_;
  /// Slots completed at least once: a kReserved answer on one of them
  /// is a miss after its eviction.
  std::set<Key> completed_ever_;
  std::map<SlotState, std::uint64_t> answered_;
  std::map<std::size_t, std::uint64_t> replayed_sizes_;
  std::uint64_t misses_after_eviction_ = 0;
  std::size_t peak_completed_ = 0;
};

void walk(Churn& churn) {
  for (int i = 0; i < kSteps; ++i) {
    churn.step(i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Four completed exchanges for 300 keys: nearly every completion evicts,
// and a small index wraps around on most deletions.
TEST(ExchangeCacheChurn, SmallCapacityEvictsOnMostSteps) {
  Churn churn(/*capacity=*/4, /*seed=*/0xc4u);
  walk(churn);
  if (::testing::Test::HasFatalFailure()) return;
  churn.check_coverage(/*min_peak=*/4, /*min_evictions=*/kSteps / 4);
}

// 240 completed exchanges for 300 keys: the cache grows from empty
// through several doublings of its index, then evicts at full size.
TEST(ExchangeCacheChurn, LargeCapacityGrowsThenEvicts) {
  Churn churn(/*capacity=*/240, /*seed=*/0x5eedu);
  walk(churn);
  if (::testing::Test::HasFatalFailure()) return;
  churn.check_coverage(/*min_peak=*/240, /*min_evictions=*/100);
}

}  // namespace
}  // namespace medsen::cloud
