#include "dsp/polyfit.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace medsen::dsp {

namespace {

/// Solve the dense m-by-m system A x = b in place (partial pivoting).
/// `a` is row-major m*m; `b` and `x` hold m values. `x` may alias `b`.
void solve_inplace(double* a, double* b, std::size_t m, double* x) {
  for (std::size_t col = 0; col < m; ++col) {
    // Pivot
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < m; ++row)
      if (std::fabs(a[row * m + col]) > std::fabs(a[pivot * m + col]))
        pivot = row;
    if (std::fabs(a[pivot * m + col]) < 1e-12)
      throw std::runtime_error("polyfit: singular normal equations");
    if (pivot != col) {
      std::swap_ranges(a + col * m, a + (col + 1) * m, a + pivot * m);
      std::swap(b[col], b[pivot]);
    }
    // Eliminate
    for (std::size_t row = col + 1; row < m; ++row) {
      const double factor = a[row * m + col] / a[col * m + col];
      for (std::size_t k = col; k < m; ++k)
        a[row * m + k] -= factor * a[col * m + k];
      b[row] -= factor * b[col];
    }
  }
  for (std::size_t i = m; i-- > 0;) {
    double acc = b[i];
    for (std::size_t k = i + 1; k < m; ++k) acc -= a[i * m + k] * x[k];
    x[i] = acc / a[i * m + i];
  }
}

}  // namespace

Polynomial polyfit(std::span<const double> xs, std::span<const double> ys,
                   unsigned degree) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("polyfit: xs/ys size mismatch");
  const std::size_t n = xs.size();
  const std::size_t m = degree + 1;
  if (n < m) throw std::invalid_argument("polyfit: too few points");

  // Normal equations: (V^T V) c = V^T y with Vandermonde V.
  // Accumulate power sums S_k = sum x^k for k in [0, 2*degree].
  std::vector<double> power_sums(2 * degree + 1, 0.0);
  std::vector<double> rhs(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double xp = 1.0;
    for (std::size_t k = 0; k < power_sums.size(); ++k) {
      power_sums[k] += xp;
      if (k < m) rhs[k] += xp * ys[i];
      xp *= xs[i];
    }
  }
  std::vector<double> a(m * m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c) a[r * m + c] = power_sums[r + c];
  Polynomial coeffs(m);
  solve_inplace(a.data(), rhs.data(), m, coeffs.data());
  return coeffs;
}

namespace {

/// Generic power-sum accumulation (any degree): rolling xp = x^k with the
/// per-k `k < m` branch. The degree-2 fast path reproduces exactly this
/// operation order.
void accumulate_power_sums(std::span<const double> ys, std::size_t m,
                           PolyfitScratch& scratch) {
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double x = static_cast<double>(i);
    double xp = 1.0;
    for (std::size_t k = 0; k < scratch.power_sums.size(); ++k) {
      scratch.power_sums[k] += xp;
      if (k < m) scratch.rhs[k] += xp * ys[i];
      xp *= x;
    }
  }
}

std::span<const double> solve_normal_equations(std::size_t m,
                                               PolyfitScratch& scratch) {
  scratch.matrix.resize(m * m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c)
      scratch.matrix[r * m + c] = scratch.power_sums[r + c];
  scratch.coeffs.resize(m);
  solve_inplace(scratch.matrix.data(), scratch.rhs.data(), m,
                scratch.coeffs.data());
  return {scratch.coeffs.data(), m};
}

}  // namespace

std::span<const double> polyfit_indices(std::span<const double> ys,
                                        unsigned degree,
                                        PolyfitScratch& scratch) {
  if (degree != 2) return polyfit_indices_reference(ys, degree, scratch);
  QuadraticRhs rhs;
  for (std::size_t i = 0; i < ys.size(); ++i)
    rhs.add(static_cast<double>(i), ys[i]);
  return polyfit_quadratic(ys.size(), rhs, scratch);
}

std::span<const double> polyfit_quadratic(std::size_t n,
                                          const QuadraticRhs& rhs,
                                          PolyfitScratch& scratch) {
  if (n < 3) throw std::invalid_argument("polyfit: too few points");
  if (scratch.power_sums_n != n) {
    // The five sums in registers; each x^k is built by the same
    // successive multiplications as the rolling-xp loop (x2 = x*x,
    // x3 = x2*x, ...), so they are bit-identical to
    // accumulate_power_sums'.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      const double x2 = x * x;
      const double x3 = x2 * x;
      const double x4 = x3 * x;
      s0 += 1.0;
      s1 += x;
      s2 += x2;
      s3 += x3;
      s4 += x4;
    }
    scratch.power_sums = {s0, s1, s2, s3, s4};
    scratch.power_sums_n = n;
  }
  scratch.rhs = {rhs.r0, rhs.r1, rhs.r2};
  return solve_normal_equations(3, scratch);
}

std::span<const double> polyfit_indices_reference(std::span<const double> ys,
                                                  unsigned degree,
                                                  PolyfitScratch& scratch) {
  const std::size_t n = ys.size();
  const std::size_t m = degree + 1;
  if (n < m) throw std::invalid_argument("polyfit: too few points");

  scratch.power_sums.assign(2 * degree + 1, 0.0);
  scratch.power_sums_n = 0;
  scratch.rhs.assign(m, 0.0);
  accumulate_power_sums(ys, m, scratch);
  return solve_normal_equations(m, scratch);
}

Polynomial polyfit(std::span<const double> ys, unsigned degree) {
  PolyfitScratch scratch;
  const auto coeffs = polyfit_indices(ys, degree, scratch);
  return Polynomial(coeffs.begin(), coeffs.end());
}

double polyval(std::span<const double> coeffs, double x) {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

std::vector<double> polyval_indices(std::span<const double> coeffs,
                                    std::size_t n) {
  std::vector<double> out(n);
  polyval_indices_into(coeffs, out);
  return out;
}

void polyval_indices_into(std::span<const double> coeffs,
                          std::span<double> out) {
  if (coeffs.size() == 3) {
    // Quadratic fast path: indices are independent, the coefficients
    // live in registers, and the loop body is the same Horner order as
    // polyval — bit-identical, but the branch-free form auto-vectorizes
    // across i.
    const double c0 = coeffs[0], c1 = coeffs[1], c2 = coeffs[2];
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double x = static_cast<double>(i);
      out[i] = (c2 * x + c1) * x + c0;
    }
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = polyval(coeffs, static_cast<double>(i));
}

}  // namespace medsen::dsp
