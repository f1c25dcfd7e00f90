#include "dsp/detrend.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/polyfit.h"
#include "util/stats.h"

namespace medsen::dsp {

namespace {

/// One sample over its fitted baseline, guarding a near-zero fit.
inline double normalize(double sample, double baseline) {
  return std::fabs(baseline) > 1e-12 ? sample / baseline : 1.0;
}

/// Cross-fade weight of the sample `from_edge` samples in from the outer
/// edge of an overlap ramp of `ramp` samples.
inline double ramp_weight(std::size_t from_edge, double ramp) {
  return (static_cast<double>(from_edge) + 1.0) / ramp;
}

/// Fits the window at `start` and writes its share of `out`. A sample no
/// other window covers is its weighted mean over one window,
/// (0 + 1*q) / (0 + 1), which is exactly 0 + q (+0.0 for q = -0.0).
/// Ramps cross-fade with the neighbouring windows: the right ramp goes
/// to task.tail as the first term of its weighted sum, and the left ramp
/// is blended with the previous window's task.tail — or, when
/// `blend_left` is false (a task's first window on the pooled path),
/// left as its second term in task.head for the seam pass. Every sum
/// adds its terms in window order, as a running accumulation would.
void process_window(std::span<const double> signal, std::size_t start,
                    std::size_t window, std::size_t overlap, unsigned degree,
                    bool blend_left, DetrendWorkspace::TaskScratch& task,
                    std::span<double> out) {
  const std::size_t n = signal.size();
  const std::size_t end = std::min(start + window, n);
  const std::size_t len = end - start;
  const std::span<const double> chunk = signal.subspan(start, len);

  task.fitted.resize(len);
  if (len >= static_cast<std::size_t>(degree) + 1) {
    const auto coeffs = polyfit_indices(chunk, degree, task.poly);
    polyval_indices_into(coeffs, task.fitted);
  } else {
    std::fill(task.fitted.begin(), task.fitted.end(), util::mean(chunk));
  }

  // Only the first window lacks a left ramp and only the last a right
  // one. Overlap is at most window / 2 and the last window is longer
  // than the overlap (the one before it ends short of n), so the ramps
  // never meet and no sample lies under three windows.
  const double* const fitted = task.fitted.data();
  double* const dst = out.data() + start;
  const std::size_t left = (overlap > 0 && start > 0) ? overlap : 0;
  const std::size_t right = (overlap > 0 && end < n) ? overlap : 0;
  const double ramp = static_cast<double>(overlap);
  if (blend_left) {
    for (std::size_t i = 0; i < left; ++i) {
      const double w = ramp_weight(i, ramp);
      dst[i] = (task.tail[i] + w * normalize(chunk[i], fitted[i])) /
               (ramp_weight(overlap - 1 - i, ramp) + w);
    }
  } else {
    task.head.resize(left);
    for (std::size_t i = 0; i < left; ++i)
      task.head[i] = ramp_weight(i, ramp) * normalize(chunk[i], fitted[i]);
  }
  for (std::size_t i = left; i < len - right; ++i)
    dst[i] = 0.0 + normalize(chunk[i], fitted[i]);
  task.tail.resize(right);
  for (std::size_t i = len - right; i < len; ++i)
    task.tail[i - (len - right)] =
        0.0 + ramp_weight(len - 1 - i, ramp) * normalize(chunk[i], fitted[i]);
}

}  // namespace

void detrend_into(std::span<const double> signal, const DetrendConfig& config,
                  std::span<double> out, util::ThreadPool* pool,
                  DetrendWorkspace& workspace) {
  const std::size_t n = signal.size();
  if (out.size() != n)
    throw std::invalid_argument("detrend_into: output size mismatch");
  if (n == 0) return;

  const std::size_t window = std::max<std::size_t>(config.window, 8);
  const std::size_t overlap = std::min(config.overlap, window / 2);
  const std::size_t stride = window - overlap;

  std::vector<std::size_t>& starts = workspace.starts;
  starts.clear();
  for (std::size_t s = 0; s < n; s += stride) {
    starts.push_back(s);
    if (std::min(s + window, n) == n) break;
  }
  const std::size_t num_windows = starts.size();

  std::size_t tasks = 1;
  if (pool != nullptr && num_windows > 1)
    tasks = std::min(num_windows,
                     static_cast<std::size_t>(pool->concurrency()) * 2);
  if (workspace.tasks.size() < tasks) workspace.tasks.resize(tasks);

  if (tasks <= 1) {
    for (const std::size_t s : starts)
      process_window(signal, s, window, overlap, config.poly_degree,
                     /*blend_left=*/true, workspace.tasks[0], out);
    return;
  }
  // Each task owns a contiguous run of (at least one) windows. A window
  // reads only its own samples and writes only those no other task's
  // window covers, so `out` may alias `signal`. The ramp two tasks share
  // is blended serially after the fan-out, with the serial path's
  // operations: bit-identical output for any thread count.
  pool->parallel_for(
      tasks, 1, [&](std::size_t task_begin, std::size_t task_end) {
        for (std::size_t t = task_begin; t < task_end; ++t) {
          const std::size_t wb = t * num_windows / tasks;
          const std::size_t we = (t + 1) * num_windows / tasks;
          for (std::size_t w = wb; w < we; ++w)
            process_window(signal, starts[w], window, overlap,
                           config.poly_degree, /*blend_left=*/w != wb,
                           workspace.tasks[t], out);
        }
      });
  const double ramp = static_cast<double>(overlap);
  for (std::size_t t = 1; t < tasks; ++t) {
    const std::vector<double>& tail = workspace.tasks[t - 1].tail;
    const std::vector<double>& head = workspace.tasks[t].head;
    double* const dst = out.data() + starts[t * num_windows / tasks];
    for (std::size_t i = 0; i < head.size(); ++i)
      dst[i] = (tail[i] + head[i]) /
               (ramp_weight(overlap - 1 - i, ramp) + ramp_weight(i, ramp));
  }
}

void detrend_into(std::span<const double> signal, const DetrendConfig& config,
                  std::span<double> out, util::ThreadPool* pool) {
  DetrendWorkspace workspace;
  detrend_into(signal, config, out, pool, workspace);
}

std::vector<double> detrend(std::span<const double> signal,
                            const DetrendConfig& config,
                            util::ThreadPool* pool) {
  std::vector<double> out(signal.size(), 1.0);
  detrend_into(signal, config, out, pool);
  return out;
}

void detrend_in_place(util::TimeSeries& series, const DetrendConfig& config,
                      util::ThreadPool* pool) {
  detrend_into(series.samples(), config, series.samples_mut(), pool);
}

}  // namespace medsen::dsp
