#pragma once
// Basic descriptive statistics and regression helpers used throughout the
// MedSen codebase (bead-count calibration, classifier margins, benchmarks).

#include <cstddef>
#include <span>
#include <vector>

namespace medsen::util {

/// Arithmetic mean of a sample. Returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased (n-1) sample variance. Returns 0 for spans of size < 2.
double variance(std::span<const double> xs);

/// Unbiased sample standard deviation.
double stddev(std::span<const double> xs);

/// Median (averages the two central elements for even sizes).
/// Returns 0 for an empty span.
double median(std::span<const double> xs);

/// Linear interpolated percentile, p in [0,100]. Returns 0 for empty input.
double percentile(std::span<const double> xs, double p);

/// Result of an ordinary-least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< coefficient of determination
};

/// Ordinary least squares over paired samples. Requires xs.size() ==
/// ys.size(); degenerate inputs (size < 2 or zero x-variance) yield a
/// zero-slope fit through the mean.
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

/// Pearson correlation coefficient; 0 for degenerate inputs.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Fixed-width histogram over [lo, hi) with `bins` equal-width buckets.
/// Values outside the range are clamped into the first/last bucket.
std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins);

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;  ///< unbiased; 0 when n < 2
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace medsen::util
