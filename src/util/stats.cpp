#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace medsen::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n % 2 == 1) return v[n / 2];
  return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) {
    fit.intercept = n == 1 ? ys[0] : 0.0;
    return fit;
  }
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) {
    fit.intercept = my;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins) {
  std::vector<std::size_t> out(bins, 0);
  if (bins == 0 || hi <= lo) return out;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto idx = static_cast<long>((x - lo) / width);
    idx = std::clamp<long>(idx, 0, static_cast<long>(bins) - 1);
    ++out[static_cast<std::size_t>(idx)];
  }
  return out;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace medsen::util
