#pragma once
// The cloud's signal-analysis service: detrend each carrier channel of the
// (encrypted) acquisition and extract peaks — the heavyweight processing
// the paper offloads from the sensor (Section VI-C). The service sees
// only ciphertext-domain signals; peak lists it returns are still
// encrypted in the counting sense.
//
// Every channel runs the one procedure the quality gate scores: the
// kQualityDetrend detrend (second-order fit per overlapping window,
// division by the fit), then threshold peak detection with
// dsp::PeakDetectConfig{} — or, in the adaptive mode, at a threshold
// derived from the channel's noise floor.
//
// Parallelism: channels are analyzed concurrently and each channel's
// detrend window loop fans out on the same util::ThreadPool. The pool is
// shared across requests (CloudServer injects one service-wide instance)
// and the parallel result is bit-identical to a serial run — see the
// "Threading model" section of DESIGN.md.

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
  /// Derive the detection threshold from each channel's measured noise
  /// floor (dsp::adaptive_threshold's default 6 sigma) instead of
  /// dsp::PeakDetectConfig{}'s (deployments see sensors with differing
  /// noise).
  bool adaptive_threshold = false;
  /// Analysis parallelism: 0 = one thread per hardware core, 1 = fully
  /// serial (no pool), N = N-way. Ignored when a pool is injected.
  unsigned threads = 0;
};

/// An upload's quality verdict and, when it passes, its peaks.
struct GatedAnalysis {
  QualityReport quality;
  core::PeakReport report;  ///< empty unless quality.acceptable
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
  /// quality)'s, and an acceptable upload gets analyze(series)'s report.
  GatedAnalysis analyze_gated(const util::MultiChannelSeries& series,
                              const QualityConfig& quality = {});

  /// The pool driving this service (null = serial), shared across
  /// requests.
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

  bool adaptive_threshold_;
  std::shared_ptr<util::ThreadPool> pool_;
  util::ScratchPool<ChannelScratch> scratch_pool_;
};

}  // namespace medsen::cloud
