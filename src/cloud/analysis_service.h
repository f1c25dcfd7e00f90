#pragma once
// The cloud's signal-analysis service: detrend each carrier channel of the
// (encrypted) acquisition and extract peaks — the heavyweight processing
// the paper offloads from the sensor (Section VI-C). The service sees
// only ciphertext-domain signals; peak lists it returns are still
// encrypted in the counting sense.
//
// Parallelism: channels are analyzed concurrently and each channel's
// detrend window loop fans out on the same util::ThreadPool. The pool is
// shared across requests (CloudServer injects one service-wide instance)
// and the parallel result is bit-identical to a serial run — see the
// "Threading model" section of DESIGN.md.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include <vector>

#include "cloud/quality.h"
#include "core/peak_report.h"
#include "dsp/detrend.h"
#include "dsp/peak_detect.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

namespace medsen::cloud {

struct AnalysisConfig {
  dsp::DetrendConfig detrend;
  dsp::PeakDetectConfig peak_detect;
  /// Derive the detection threshold from each channel's measured noise
  /// floor instead of peak_detect.threshold (deployments see sensors
  /// with differing noise).
  bool adaptive_threshold = false;
  double adaptive_k_sigma = 6.0;
  /// Analysis parallelism: 0 = one thread per hardware core, 1 = fully
  /// serial (no pool), N = N-way. Ignored when a pool is injected.
  unsigned threads = 0;
};

/// An upload's quality verdict and, when it passes, its peaks.
struct GatedAnalysis {
  QualityReport quality;
  core::PeakReport report;  ///< empty unless quality.acceptable
};

struct AnalysisStats {
  std::uint64_t samples_processed = 0;
  std::uint64_t peaks_found = 0;
  double processing_time_s = 0.0;  ///< wall-clock of the last analyze()
};

class AnalysisService {
 public:
  /// Construct with an optional externally shared pool. Without one, a
  /// pool sized from config.threads is created (none when threads == 1).
  explicit AnalysisService(AnalysisConfig config = {},
                           std::shared_ptr<util::ThreadPool> pool = nullptr);

  /// Analyze a full acquisition: detrend + peak detection per channel.
  /// Safe to call from several request threads concurrently.
  core::PeakReport analyze(const util::MultiChannelSeries& series);

  /// The quality gate and analyze() together: each window of a channel
  /// is read twice, by the detrend's fit pass, which also runs the
  /// gate's raw-sample checks, and its normalize pass, which also
  /// measures the gate's noise and finds the peak threshold regions
  /// (cloud::detrend_and_assess). Peaks are finished only while no
  /// channel has failed. The verdict is assess_quality(series,
  /// quality)'s; an acceptable upload gets analyze(series)'s report and
  /// stats, a rejected one leaves stats() untouched.
  GatedAnalysis analyze_gated(const util::MultiChannelSeries& series,
                              const QualityConfig& quality = {});

  /// Snapshot of the last analyze()'s statistics. Lock-free: the fields
  /// are independent relaxed atomics, so a read racing a concurrent
  /// analyze() may mix two analyses' fields — never tear one value.
  [[nodiscard]] AnalysisStats stats() const;
  [[nodiscard]] const AnalysisConfig& config() const { return config_; }
  /// The pool driving this service (null = serial), shared across
  /// requests and reusable by other components.
  [[nodiscard]] const std::shared_ptr<util::ThreadPool>& thread_pool() const {
    return pool_;
  }

 private:
  /// Everything one channel task needs: the detrended-signal buffer and
  /// the detrend/peak-detect workspaces (the detrend's keeps the fits'
  /// power sums for the channel lengths it last saw). Leased from scratch_pool_ per
  /// channel task, so steady-state requests analyze with no per-channel
  /// allocation (buffers warm up to the largest channel seen). A pool —
  /// not thread_local — because ThreadPool's help-while-waiting can run
  /// a nested task on a thread whose outer frame still uses its scratch.
  struct ChannelScratch {
    std::vector<double> detrended;
    dsp::DetrendWorkspace detrend;
    dsp::PeakDetectScratch peak_detect;
  };

  /// analyze() when `gate` is null, analyze_gated() otherwise.
  GatedAnalysis run(const util::MultiChannelSeries& series,
                    const QualityConfig* gate);

  AnalysisConfig config_;
  std::shared_ptr<util::ThreadPool> pool_;
  util::ScratchPool<ChannelScratch> scratch_pool_;
  std::atomic<std::uint64_t> samples_processed_{0};
  std::atomic<std::uint64_t> peaks_found_{0};
  std::atomic<std::uint64_t> processing_time_ns_{0};
};

}  // namespace medsen::cloud
