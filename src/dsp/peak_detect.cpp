#include "dsp/peak_detect.h"

#include <algorithm>

namespace medsen::dsp {

namespace {

using Region = PeakDetectScratch::Region;

/// Depth below the unit baseline, computed where it is read: the same
/// subtraction every time, so every read sees the same bits.
class Depth {
 public:
  explicit Depth(std::span<const double> detrended) : x_(detrended) {}
  double operator[](std::size_t i) const { return 1.0 - x_[i]; }
  [[nodiscard]] std::size_t size() const { return x_.size(); }

 private:
  std::span<const double> x_;
};

/// Local maxima of depth within [begin, end), plateau-tolerant.
std::vector<std::size_t> local_maxima(Depth depth, std::size_t begin,
                                      std::size_t end) {
  std::vector<std::size_t> maxima;
  for (std::size_t i = begin; i < end; ++i) {
    const bool rising = (i == begin) || depth[i] > depth[i - 1];
    const bool falling = (i + 1 == end) || depth[i] >= depth[i + 1];
    if (rising && falling) maxima.push_back(i);
  }
  if (maxima.empty()) {
    // Monotone region (can happen at signal edges): keep the deepest.
    std::size_t best = begin;
    for (std::size_t i = begin; i < end; ++i)
      if (depth[i] > depth[best]) best = i;
    maxima.push_back(best);
  }
  return maxima;
}

/// Valley (minimum depth) position between two indices.
std::size_t valley_between(Depth depth, std::size_t a, std::size_t b) {
  std::size_t v = a;
  for (std::size_t i = a; i <= b; ++i)
    if (depth[i] < depth[v]) v = i;
  return v;
}

/// Sub-sample valley position via parabolic interpolation around the
/// discrete minimum — keeps interior peak widths from being quantized to
/// whole samples.
double valley_position(Depth depth, std::size_t v) {
  if (v == 0 || v + 1 >= depth.size()) return static_cast<double>(v);
  const double a = depth[v - 1], b = depth[v], c = depth[v + 1];
  const double denom = a - 2.0 * b + c;
  if (denom <= 1e-15) return static_cast<double>(v);
  const double shift = 0.5 * (a - c) / denom;
  return static_cast<double>(v) + std::clamp(shift, -0.5, 0.5);
}

/// Merge maxima whose separating valley is too shallow (noise-born
/// double-maxima on one physical peak).
std::vector<std::size_t> prune_maxima(Depth depth,
                                      std::vector<std::size_t> maxima,
                                      double split_ratio) {
  bool changed = true;
  while (changed && maxima.size() > 1) {
    changed = false;
    double worst_ratio = split_ratio;
    std::size_t worst_pair = maxima.size();
    for (std::size_t k = 0; k + 1 < maxima.size(); ++k) {
      const std::size_t v = valley_between(depth, maxima[k], maxima[k + 1]);
      const double smaller = std::min(depth[maxima[k]], depth[maxima[k + 1]]);
      if (smaller <= 0.0) {
        worst_pair = k;
        worst_ratio = 1.0;
        break;
      }
      const double ratio = depth[v] / smaller;
      if (ratio >= worst_ratio) {
        worst_ratio = ratio;
        worst_pair = k;
      }
    }
    if (worst_pair < maxima.size()) {
      // Merge: drop the smaller of the two maxima.
      if (depth[maxima[worst_pair]] < depth[maxima[worst_pair + 1]])
        maxima.erase(maxima.begin() + static_cast<long>(worst_pair));
      else
        maxima.erase(maxima.begin() + static_cast<long>(worst_pair) + 1);
      changed = true;
    }
  }
  return maxima;
}

}  // namespace

void RegionScan::add_region(std::vector<PeakDetectScratch::Region>& regions,
                            std::size_t begin, std::size_t end) {
  regions.push_back({begin, end});
}

std::vector<Peak> detect_peaks(std::span<const double> detrended,
                               double sample_rate_hz, double start_time_s,
                               const PeakDetectConfig& config) {
  PeakDetectScratch scratch;
  return detect_peaks(detrended, sample_rate_hz, start_time_s, config,
                      scratch);
}

std::vector<Peak> detect_peaks(std::span<const double> detrended,
                               double sample_rate_hz, double start_time_s,
                               const PeakDetectConfig& config,
                               PeakDetectScratch& scratch) {
  RegionScan scan(config.threshold, scratch);
  for (const double x : detrended) scan.push(x);
  scan.finish();
  return finish_peaks(detrended, sample_rate_hz, start_time_s, config,
                      scratch);
}

std::vector<Peak> finish_peaks(std::span<const double> detrended,
                               double sample_rate_hz, double start_time_s,
                               const PeakDetectConfig& config,
                               PeakDetectScratch& scratch) {
  std::vector<Peak> peaks;
  const std::size_t n = detrended.size();
  const Depth depth(detrended);

  // Merge regions separated by small gaps (single noisy samples splitting
  // one physical transit into two).
  std::vector<Region>& merged = scratch.merged;
  merged.clear();
  for (const Region& r : scratch.regions) {
    if (!merged.empty() && r.begin - merged.back().end <= config.merge_gap) {
      merged.back().end = r.end;
    } else {
      merged.push_back(r);
    }
  }

  for (const Region& r : merged) {
    if (r.end - r.begin < config.min_width) continue;

    // Split multi-electrode trains at significant interior valleys.
    auto maxima = prune_maxima(
        depth, local_maxima(depth, r.begin, r.end), config.valley_split_ratio);

    // Interior boundaries at the valleys between surviving maxima.
    std::vector<double> bounds;  // fractional sample positions
    // Left outer boundary: interpolated threshold crossing.
    double left = static_cast<double>(r.begin);
    if (r.begin > 0 && depth[r.begin] > depth[r.begin - 1]) {
      left -= 1.0 - (config.threshold - depth[r.begin - 1]) /
                        (depth[r.begin] - depth[r.begin - 1]);
    }
    bounds.push_back(left);
    for (std::size_t k = 0; k + 1 < maxima.size(); ++k)
      bounds.push_back(valley_position(
          depth, valley_between(depth, maxima[k], maxima[k + 1])));
    double right = static_cast<double>(r.end - 1);
    if (r.end < n && depth[r.end - 1] > depth[r.end]) {
      right += 1.0 - (config.threshold - depth[r.end]) /
                         (depth[r.end - 1] - depth[r.end]);
    } else {
      right = static_cast<double>(r.end);
    }
    bounds.push_back(right);

    for (std::size_t k = 0; k < maxima.size(); ++k) {
      Peak p;
      p.index = maxima[k];
      p.time_s =
          start_time_s + static_cast<double>(maxima[k]) / sample_rate_hz;
      p.amplitude = depth[maxima[k]];
      p.width_s = std::max(bounds[k + 1] - bounds[k], 1.0) / sample_rate_hz;
      peaks.push_back(p);
    }
  }
  return peaks;
}

std::vector<Peak> detect_peaks(const util::TimeSeries& detrended,
                               const PeakDetectConfig& config) {
  return detect_peaks(detrended.samples(), detrended.sample_rate(),
                      detrended.start_time(), config);
}

}  // namespace medsen::dsp
