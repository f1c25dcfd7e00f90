#pragma once
// Threshold peak detection on detrended signals (paper Section VI-C):
// peaks are downward excursions below the unit baseline; a peak is the
// contiguous region where (1 - signal) exceeds the minimum threshold.
// Each peak is reported with timestamp, depth (amplitude) and width — the
// three features the cipher deliberately scrambles and the decryptor
// recovers.

#include <cstddef>
#include <span>
#include <vector>

#include "util/time_series.h"

namespace medsen::dsp {

/// One detected peak.
struct Peak {
  double time_s = 0.0;       ///< timestamp of the extremum
  double amplitude = 0.0;    ///< depth below baseline (positive)
  double width_s = 0.0;      ///< full width at the detection threshold
  std::size_t index = 0;     ///< sample index of the extremum
};

struct PeakDetectConfig {
  double threshold = 0.0015;     ///< minimum depth below baseline (1 - x)
  std::size_t min_width = 2;     ///< minimum samples above threshold
  std::size_t merge_gap = 1;     ///< merge regions separated by <= gap
  /// A contiguous above-threshold region is split into several peaks at
  /// interior valleys whose depth falls below this fraction of the
  /// smaller neighbouring peak. Multi-electrode trains (paper Fig. 11d)
  /// stay countable even when the signal never returns to baseline
  /// between electrodes.
  double valley_split_ratio = 0.6;
};

/// Reusable buffers for detect_peaks: the threshold-region lists. Thread
/// one instance through repeated calls to detect with no per-call heap
/// traffic for them. Depth (1 - x) is computed where it is read, so no
/// buffer is signal-length. Contents are scratch: overwritten each call,
/// never read.
struct PeakDetectScratch {
  struct Region {
    std::size_t begin, end;  // [begin, end)
  };
  std::vector<Region> regions, merged;
};

/// detect_peaks' first pass: the contiguous regions whose depth (1 - x)
/// reaches the threshold, found one detrended sample at a time in order,
/// into scratch.regions. detect_peaks runs it over its input;
/// detrend_into can run it as it writes each sample (dsp::DetrendedScan),
/// and finish_peaks then does the rest.
class RegionScan {
 public:
  RegionScan() = default;
  /// Clears scratch.regions; the scan writes them from sample 0.
  RegionScan(double threshold, PeakDetectScratch& scratch)
      : threshold_(threshold), regions_(&scratch.regions) {
    regions_->clear();
  }

  void push(double x) {
    const bool above = 1.0 - x >= threshold_;
    if (above && !in_region_) {
      in_region_ = true;
      region_start_ = index_;
    } else if (!above && in_region_) {
      in_region_ = false;
      add_region(*regions_, region_start_, index_);
    }
    ++index_;
  }

  /// Closes a region still open at the last sample.
  void finish() {
    if (in_region_) add_region(*regions_, region_start_, index_);
    in_region_ = false;
  }

 private:
  /// Out of line, so push() stays small enough to inline into a
  /// caller's loop, whose registers then keep the scan's state.
  static void add_region(std::vector<PeakDetectScratch::Region>& regions,
                         std::size_t begin, std::size_t end);

  double threshold_ = 0.0;
  std::vector<PeakDetectScratch::Region>* regions_ = nullptr;
  std::size_t index_ = 0;
  std::size_t region_start_ = 0;
  bool in_region_ = false;
};

/// Detect peaks in an already detrended signal (baseline ~= 1.0).
std::vector<Peak> detect_peaks(std::span<const double> detrended,
                               double sample_rate_hz, double start_time_s,
                               const PeakDetectConfig& config = {});

/// Scratch-reusing overload; identical output to the plain overload.
std::vector<Peak> detect_peaks(std::span<const double> detrended,
                               double sample_rate_hz, double start_time_s,
                               const PeakDetectConfig& config,
                               PeakDetectScratch& scratch);

/// detect_peaks after its region scan: `scratch.regions` must hold what a
/// RegionScan at config.threshold found over all of `detrended`. Merges
/// them and finds each region's maxima, valleys and widths; identical
/// output to detect_peaks.
std::vector<Peak> finish_peaks(std::span<const double> detrended,
                               double sample_rate_hz, double start_time_s,
                               const PeakDetectConfig& config,
                               PeakDetectScratch& scratch);

/// Convenience overload for a detrended TimeSeries.
std::vector<Peak> detect_peaks(const util::TimeSeries& detrended,
                               const PeakDetectConfig& config = {});

}  // namespace medsen::dsp
