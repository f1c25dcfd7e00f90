#pragma once
// Baseline-drift removal, reproducing the paper's cloud-side procedure
// (Section VI-C): partition the signal into overlapping sub-sequences, fit
// a second-order polynomial to each, divide the data by the fitted line
// (normalizing the baseline to 1.0), and stitch the sections back together
// with cross-fade in the overlap regions.
//
// Each window's fit is independent, so the window loop parallelizes on a
// util::ThreadPool. A sample under one window is written straight from
// that window's fit; only the overlap ramps, where two windows meet, are
// blended. Determinism contract: each blend adds its two terms in window
// order with the same operations on every path, the ramps two pool tasks
// share in a serial pass after the fan-out, so the output is
// bit-identical to the serial path for any thread count (see DESIGN.md
// "Threading model").
//
// A window is read in two passes: the fit pass accumulates the fit's
// right-hand sums, and the normalize pass evaluates the fitted quadratic
// inline and writes the output. The quality gate's raw-sample checks
// (RawSampleChecks) can ride along in the fit pass, and its noise measure
// and peak detection's threshold regions (DetrendedScan) in the
// normalize pass, so one channel's analysis reads its samples twice (see
// DESIGN.md "DSP kernel layout").

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "dsp/peak_detect.h"
#include "dsp/polyfit.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

namespace medsen::dsp {

struct DetrendConfig {
  unsigned poly_degree = 2;       ///< paper: second order found optimal
  std::size_t window = 2048;      ///< sub-sequence length in samples
  std::size_t overlap = 256;      ///< overlap between adjacent windows

  bool operator==(const DetrendConfig&) const = default;
};

/// Reusable cross-call arena for detrend_into: owns every buffer the
/// window loop needs (window starts and per-task fit and ramp scratch,
/// none of it signal-length). A caller that threads one workspace
/// through repeated calls — AnalysisService per channel task,
/// StreamingAnalyzer per block — detrends with zero per-call allocation
/// once the buffers have grown to the workload's high-water mark.
/// Contents are scratch: any state left by a previous call is
/// overwritten, never read — except the quadratic fits' power sums,
/// which the next call reuses for windows of the same length. They
/// depend on nothing but that length, and are recomputed by the same
/// loop when it changes, so reuse is bit-identical (PolyfitScratch).
/// Not safe for concurrent calls; use one workspace per
/// in-flight detrend (the internal window fan-out of a single call is
/// fine — tasks use disjoint slots).
struct DetrendWorkspace {
  /// One window task's scratch: the fit scratch for full-length windows
  /// (`poly`) and for the signal's shorter last window (`last_poly`),
  /// each keeping its power sums, plus the weighted overlap ramps its
  /// windows leave for a neighbour: `tail`, the last window's right
  /// ramp, and `head`, the task's first window's left ramp (pooled path
  /// only).
  struct TaskScratch {
    PolyfitScratch poly, last_poly;
    std::vector<double> head, tail;
  };

  std::vector<std::size_t> starts;
  std::vector<TaskScratch> tasks;
};

/// The quality gate's checks on raw samples (cloud::detrend_and_assess),
/// gathered one sample at a time in order: the extremes, the samples
/// outside [range_lo, range_hi], the non-finite samples and the samples
/// equal to the one before. detrend_into gathers them in its fit pass,
/// each sample once, by the window that owns it (from its start to the
/// next window's start).
class RawSampleChecks {
 public:
  /// The extremes start at the first sample, so they compare as
  /// std::min_element / std::max_element do: a NaN is skipped unless it
  /// comes first.
  RawSampleChecks(double first, double range_lo, double range_hi)
      : range_lo_(range_lo), range_hi_(range_hi), lo_(first), hi_(first) {}

  void add(double x) {
    if (x < lo_) lo_ = x;
    if (hi_ < x) hi_ = x;
    if (x < range_lo_ || x > range_hi_) ++outside_;
    if (!std::isfinite(x)) ++non_finite_;
    if (x == prev_) ++repeats_;  // never for the first: prev_ is NaN
    prev_ = x;
    ++count_;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t outside() const { return outside_; }
  [[nodiscard]] std::size_t non_finite() const { return non_finite_; }
  [[nodiscard]] std::size_t repeats() const { return repeats_; }

 private:
  double range_lo_, range_hi_;
  double lo_, hi_;
  double prev_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t outside_ = 0, non_finite_ = 0, repeats_ = 0, count_ = 0;
};

/// A scan of detrended samples in sample order, which detrend_into runs
/// as it writes them: the sum of squared first differences (the quality
/// gate's noise measure, cloud::detrend_and_assess) and, when given a
/// threshold, detect_peaks' threshold regions (a RegionScan, for
/// finish_peaks).
class DetrendedScan {
 public:
  /// The noise measure only.
  DetrendedScan() = default;
  /// The noise measure and the regions at `threshold`, into
  /// peaks.regions.
  DetrendedScan(double threshold, PeakDetectScratch& peaks)
      : regions_(threshold, peaks), scan_regions_(true) {}

  void push(double x) {
    if (count_ > 0) {
      const double d = x - prev_;
      diff_energy_ += d * d;
    }
    prev_ = x;
    if (scan_regions_) regions_.push(x);
    ++count_;
  }

  /// Closes the region scan after the last sample.
  void finish() {
    if (scan_regions_) regions_.finish();
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  /// Sum over i >= 1 of (x[i] - x[i-1])^2, added in sample order.
  [[nodiscard]] double diff_energy() const { return diff_energy_; }

 private:
  double diff_energy_ = 0.0;
  double prev_ = 0.0;
  std::size_t count_ = 0;
  RegionScan regions_;
  bool scan_regions_ = false;
};

/// Detrend a raw signal; the result has baseline ~= 1.0 with peaks as
/// downward excursions (impedance increases cause voltage drops).
/// Windows shorter than poly_degree+1 samples fall back to mean division.
/// With a pool, windows are fitted concurrently (bit-identical output).
std::vector<double> detrend(std::span<const double> signal,
                            const DetrendConfig& config = {},
                            util::ThreadPool* pool = nullptr);

/// Detrend into a caller-provided buffer (out.size() == signal.size()).
/// out may alias signal: a sample under one window is written after that
/// window's fit, the only one that reads it, and a sample two windows
/// share after both fits.
void detrend_into(std::span<const double> signal, const DetrendConfig& config,
                  std::span<double> out, util::ThreadPool* pool = nullptr);

/// Allocation-free overload: all working memory comes from (and stays
/// in) the caller's workspace. Bit-identical to the plain overload.
void detrend_into(std::span<const double> signal, const DetrendConfig& config,
                  std::span<double> out, util::ThreadPool* pool,
                  DetrendWorkspace& workspace);

/// The workspace overload that also pushes every output sample to
/// `scan` and, unless `checks` is null, adds every input sample to
/// `checks`, both in sample order, then finishes the scan. Serially they
/// ride along in the normalize and the fit pass; on the pooled path
/// `checks` read the input before the fan-out and `scan` the output
/// after it. The output is bit-identical to the plain overload's, and
/// `scan` and `checks` end as a plain loop over the output and the
/// input leaves them.
void detrend_into(std::span<const double> signal, const DetrendConfig& config,
                  std::span<double> out, util::ThreadPool* pool,
                  DetrendWorkspace& workspace, DetrendedScan& scan,
                  RawSampleChecks* checks = nullptr);

/// Detrend a TimeSeries in place (preserves rate/start metadata); computes
/// directly into the series' sample buffer, no copy-back.
void detrend_in_place(util::TimeSeries& series,
                      const DetrendConfig& config = {},
                      util::ThreadPool* pool = nullptr);

}  // namespace medsen::dsp
