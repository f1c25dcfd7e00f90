#include "cloud/analysis_service.h"

#include <atomic>
#include <span>
#include <thread>

#include "dsp/noise.h"

namespace medsen::cloud {

namespace {

unsigned resolved_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

AnalysisService::AnalysisService(AnalysisConfig config,
                                 std::shared_ptr<util::ThreadPool> pool)
    : adaptive_threshold_(config.adaptive_threshold), pool_(std::move(pool)) {
  const unsigned threads = resolved_threads(config.threads);
  if (!pool_ && threads > 1)
    pool_ = std::make_shared<util::ThreadPool>(threads - 1);
}

core::PeakReport AnalysisService::analyze(
    const util::MultiChannelSeries& series) {
  return run(series, nullptr).report;
}

GatedAnalysis AnalysisService::analyze_gated(
    const util::MultiChannelSeries& series, const QualityConfig& quality) {
  return run(series, &quality);
}

GatedAnalysis AnalysisService::run(const util::MultiChannelSeries& series,
                                   const QualityConfig* gate) {
  const std::size_t n_channels = series.channels.size();
  GatedAnalysis result;
  core::PeakReport& report = result.report;
  report.channels.resize(n_channels);
  std::vector<ChannelQuality> quality(gate != nullptr ? n_channels : 0);
  // Set by the first channel that fails the gate. The report is then
  // discarded, so channels scored after it skip peak detection.
  std::atomic<bool> rejected{false};
  const dsp::PeakDetectConfig detect;

  // Each channel task writes only its own report and quality slots, so
  // the fan-out is race-free.
  const auto analyze_channel = [&](std::size_t i) {
    const auto& channel = series.channels[i];
    const std::span<const double> signal = channel.samples();
    // Lease working memory for this channel task; every buffer below is
    // reused across requests instead of allocated per channel.
    auto scratch = scratch_pool_.acquire();
    scratch->detrended.resize(signal.size());
    const std::span<double> detrended(scratch->detrended.data(),
                                      signal.size());
    // The detrend's normalize pass finds the threshold regions as it
    // writes each sample, unless the threshold is derived from the
    // finished signal.
    dsp::DetrendedScan scan;
    if (!adaptive_threshold_)
      scan = dsp::DetrendedScan(detect.threshold, scratch->peak_detect);
    if (gate != nullptr) {
      // The gate scores the same kQualityDetrend output in the same two
      // passes.
      quality[i] = detrend_and_assess(signal, detrended, pool_.get(),
                                      scratch->detrend, scan, *gate);
      if (quality[i].worst != QualityReason::kNone)
        rejected.store(true, std::memory_order_relaxed);
      if (rejected.load(std::memory_order_relaxed)) return;
    } else {
      dsp::detrend_into(signal, kQualityDetrend, detrended, pool_.get(),
                        scratch->detrend, scan);
    }
    // Merging, maxima, valleys and widths run only for an upload the gate
    // passed.
    if (adaptive_threshold_) {
      dsp::PeakDetectConfig adaptive = detect;
      adaptive.threshold = dsp::adaptive_threshold(detrended);
      report.channels[i].peaks =
          dsp::detect_peaks(detrended, channel.sample_rate(),
                            channel.start_time(), adaptive,
                            scratch->peak_detect);
    } else {
      report.channels[i].peaks =
          dsp::finish_peaks(detrended, channel.sample_rate(),
                            channel.start_time(), detect,
                            scratch->peak_detect);
    }
  };

  if (pool_ && n_channels > 1) {
    pool_->parallel_for(n_channels, 1,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            analyze_channel(i);
                        });
  } else {
    for (std::size_t i = 0; i < n_channels; ++i) analyze_channel(i);
  }

  if (gate != nullptr) {
    result.quality = summarize_quality(std::move(quality));
    if (!result.quality.acceptable) {
      result.report = {};
      return result;
    }
  }
  for (std::size_t i = 0; i < n_channels; ++i)
    report.channels[i].carrier_hz = series.carrier_frequencies_hz.at(i);
  return result;
}

}  // namespace medsen::cloud
