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

#include <cstddef>
#include <span>
#include <vector>

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
/// overwritten, never read. Not safe for concurrent calls; use one
/// workspace per in-flight detrend (the internal window fan-out of a
/// single call is fine — tasks use disjoint slots).
struct DetrendWorkspace {
  /// One window task's scratch: the fitted-baseline buffer and polyfit
  /// sums, plus the weighted overlap ramps its windows leave for a
  /// neighbour: `tail`, the last window's right ramp, and `head`, the
  /// task's first window's left ramp (pooled path only).
  struct TaskScratch {
    std::vector<double> fitted;
    PolyfitScratch poly;
    std::vector<double> head, tail;
  };

  std::vector<std::size_t> starts;
  std::vector<TaskScratch> tasks;
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

/// Detrend a TimeSeries in place (preserves rate/start metadata); computes
/// directly into the series' sample buffer, no copy-back.
void detrend_in_place(util::TimeSeries& series,
                      const DetrendConfig& config = {},
                      util::ThreadPool* pool = nullptr);

}  // namespace medsen::dsp
