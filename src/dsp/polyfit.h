#pragma once
// Least-squares polynomial fitting. The cloud analysis service fits a
// second-order polynomial per signal window to track baseline drift
// (paper Section VI-C) before peak detection. The detrend hot path calls
// this once per 2048-sample window over million-sample acquisitions, so
// a scratch-buffer overload avoids per-window allocation entirely.

#include <span>
#include <vector>

namespace medsen::dsp {

/// Coefficients c[0] + c[1]*x + c[2]*x^2 + ... of a fitted polynomial.
using Polynomial = std::vector<double>;

/// Reusable workspace for polyfit_indices: power sums, the flattened
/// (degree+1)^2 row-major normal-equation matrix, right-hand side, and
/// the output coefficients. One instance per thread/task; reused across
/// windows without reallocating.
///
/// A degree-2 fit keeps its power sums S_k = sum x^k over x = 0..n-1,
/// which depend only on n, across calls and recomputes them only when n
/// changes (`power_sums_n` records the n they hold, 0 for none). Kept
/// sums are the bits a fresh computation gives, so reuse changes no fit.
struct PolyfitScratch {
  std::vector<double> power_sums;
  std::size_t power_sums_n = 0;
  std::vector<double> matrix;
  std::vector<double> rhs;
  std::vector<double> coeffs;
};

/// Right-hand sums of the degree-2 normal equations, sum x^k * y for
/// k = 0..2, accumulated one sample at a time in index order. The
/// operation order is polyfit_indices_reference's (x^2 is x * x), so a
/// fit from these sums is bit-identical to it. Lets a caller that reads
/// the samples for other reasons accumulate them in its own loop (see
/// detrend_into's fit pass).
struct QuadraticRhs {
  double r0 = 0.0, r1 = 0.0, r2 = 0.0;
  void add(double x, double y) {
    r0 += y;
    r1 += x * y;
    r2 += x * x * y;
  }
};

/// Fit a polynomial of the given degree to (xs, ys) by ordinary least
/// squares (normal equations + Gaussian elimination with partial
/// pivoting). Requires xs.size() == ys.size() and at least degree+1
/// points; throws std::invalid_argument otherwise.
Polynomial polyfit(std::span<const double> xs, std::span<const double> ys,
                   unsigned degree);

/// Convenience overload using x = 0, 1, 2, ... (sample index domain).
Polynomial polyfit(std::span<const double> ys, unsigned degree);

/// Allocation-free fit over the implicit index domain x = 0..ys.size()-1.
/// Returns a view of scratch.coeffs (degree+1 values), valid until the
/// scratch is next used. Identical arithmetic to polyfit(ys, degree).
/// Degree 2 — the paper's detrend order and the only degree on the hot
/// path — accumulates in registers (QuadraticRhs) and takes its power
/// sums from the scratch when it last fitted as many points
/// (polyfit_quadratic); the operation order matches the generic loop
/// exactly (bit-identical; see polyfit_indices_reference and its golden
/// test).
std::span<const double> polyfit_indices(std::span<const double> ys,
                                        unsigned degree,
                                        PolyfitScratch& scratch);

/// The degree-2 polyfit_indices for a caller that accumulated the
/// right-hand sums over its n samples itself. Throws
/// std::invalid_argument when n < 3.
std::span<const double> polyfit_quadratic(std::size_t n,
                                          const QuadraticRhs& rhs,
                                          PolyfitScratch& scratch);

/// Scalar reference kernel: the generic power-sum loop for any degree,
/// with no fast-path dispatch and no kept power sums. Kept so tests can
/// pin the optimized kernels bit-for-bit against it.
std::span<const double> polyfit_indices_reference(std::span<const double> ys,
                                                  unsigned degree,
                                                  PolyfitScratch& scratch);

/// Evaluate a polynomial at x (Horner's method).
double polyval(std::span<const double> coeffs, double x);

/// Evaluate at x = 0..n-1 into a vector.
std::vector<double> polyval_indices(std::span<const double> coeffs,
                                    std::size_t n);

/// Evaluate at x = 0..out.size()-1 into a caller-provided buffer
/// (Horner per index, no allocation). A quadratic is evaluated as
/// (c2 * x + c1) * x + c0, the form detrend_into evaluates inline.
void polyval_indices_into(std::span<const double> coeffs,
                          std::span<double> out);

}  // namespace medsen::dsp
