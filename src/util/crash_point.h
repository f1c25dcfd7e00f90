#pragma once
// util::CrashPoints — deterministic, seeded crash injection for the
// persistence layer. Every durability-critical boundary (journal append,
// fsync, rename, truncate, atomic file write) names a *crash site* by
// calling util::crash_point("name"). In production nothing is armed and
// a site costs one relaxed atomic load. A test or chaos harness arms the
// registry — "crash at the 3rd hit of journal.append.partial", or "crash
// anywhere with probability p under seed s" — and the armed site throws
// SimulatedCrash, which the harness treats as process death: it destroys
// the server and reconstructs it from disk.
//
// SimulatedCrash is deliberately NOT derived from std::exception. The
// service boundary converts std::exception into a polite kMalformed
// error envelope; a simulated power cut must rip through that handler
// exactly like a real one, caught only by the harness that armed it.
//
// The registry also *discovers* sites: with tracking enabled, every site
// a workload touches is counted, so an exhaustive sweep ("crash once at
// every reachable site") enumerates its targets instead of hardcoding
// them and silently going stale as sites are added.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace medsen::util {

/// Thrown at an armed crash site. Not a std::exception on purpose — see
/// the header comment.
struct SimulatedCrash {
  std::string site;
};

class CrashPoints {
 public:
  /// The process-wide registry (crash sites are free functions deep in
  /// the IO layer; threading an injection handle through every call
  /// would make the fast path pay for the slow one).
  static CrashPoints& instance();

  /// Record a hit at `site`; throws SimulatedCrash when armed for it.
  /// The disarmed fast path is one relaxed atomic load.
  void hit(const char* site);

  /// Arm a deterministic crash: the `nth_hit`-th hit (1-based, counted
  /// from the last reset()) of `site` throws. Enables tracking.
  void arm(std::string site, std::uint64_t nth_hit = 1);

  /// Arm a probabilistic crash: every hit of every site throws with
  /// probability `probability`, drawn from a SplitMix64 stream seeded
  /// with `seed` — the same seed replays the same crash schedule.
  void arm_random(double probability, std::uint64_t seed);

  /// Disarm both triggers (tracking keeps running if it was enabled).
  void disarm();

  /// Count hits without arming anything (site discovery).
  void set_tracking(bool enabled);

  /// Hit counts per site since the last reset(), in site-name order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  discovered() const;
  [[nodiscard]] std::uint64_t hits(const std::string& site) const;

  /// Forget counts and disarm (tracking state is kept).
  void reset();

 private:
  CrashPoints() = default;
  void hit_slow(const char* site);

  /// True iff a trigger is armed or tracking is on — the only thing the
  /// fast path reads.
  std::atomic<bool> active_{false};

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counts_;
  bool tracking_ = false;
  // Deterministic trigger.
  bool armed_ = false;
  std::string armed_site_;
  std::uint64_t armed_nth_ = 0;
  // Probabilistic trigger: crash when the next SplitMix64 draw, scaled
  // to [0, 1), lands below threshold_.
  bool random_armed_ = false;
  double threshold_ = 0.0;
  std::uint64_t rng_state_ = 0;
};

/// The site marker the IO layer calls. Inline so the disarmed cost is
/// the atomic load and nothing else.
inline void crash_point(const char* site) { CrashPoints::instance().hit(site); }

/// RAII arming for tests: arms in the constructor, disarms (and clears
/// counts) in the destructor so a throwing test never leaves the
/// process-wide registry armed for the next test.
class ScopedCrashArm {
 public:
  explicit ScopedCrashArm(std::string site, std::uint64_t nth_hit = 1) {
    CrashPoints::instance().reset();
    CrashPoints::instance().arm(std::move(site), nth_hit);
  }
  ~ScopedCrashArm() { CrashPoints::instance().reset(); }
  ScopedCrashArm(const ScopedCrashArm&) = delete;
  ScopedCrashArm& operator=(const ScopedCrashArm&) = delete;
};

}  // namespace medsen::util
