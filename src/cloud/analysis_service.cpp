#include "cloud/analysis_service.h"

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
    : config_(config), pool_(std::move(pool)) {
  const unsigned threads = resolved_threads(config_.threads);
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
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n_channels = series.channels.size();
  GatedAnalysis result;
  core::PeakReport& report = result.report;
  report.channels.resize(n_channels);
  std::vector<ChannelQuality> quality(gate != nullptr ? n_channels : 0);
  // Set by the first channel that fails the gate. The report is then
  // discarded, so channels scored after it skip peak detection.
  std::atomic<bool> rejected{false};
  // Per-channel accumulation slots: each channel task writes only its own
  // slot, so the fan-out is race-free and the serial merge below is
  // deterministic.
  std::vector<std::uint64_t> samples(n_channels, 0);
  std::vector<std::uint64_t> peaks(n_channels, 0);

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
    if (!config_.adaptive_threshold)
      scan = dsp::DetrendedScan(config_.peak_detect.threshold,
                                scratch->peak_detect);
    const bool gate_detrend = config_.detrend == kQualityDetrend;
    if (gate != nullptr) {
      // The gate scores the kQualityDetrend output in the same two
      // passes; only an analysis configured with another detrend pays
      // for a second one (into the same buffer, once the gate is done).
      dsp::DetrendedScan noise;
      quality[i] = detrend_and_assess(signal, detrended, pool_.get(),
                                      scratch->detrend,
                                      gate_detrend ? scan : noise, *gate);
      if (quality[i].worst != QualityReason::kNone)
        rejected.store(true, std::memory_order_relaxed);
      if (rejected.load(std::memory_order_relaxed)) return;
    }
    if (gate == nullptr || !gate_detrend)
      dsp::detrend_into(signal, config_.detrend, detrended, pool_.get(),
                        scratch->detrend, scan);
    // Merging, maxima, valleys and widths run only for an upload the gate
    // passed.
    if (config_.adaptive_threshold) {
      dsp::PeakDetectConfig detect = config_.peak_detect;
      detect.threshold =
          dsp::adaptive_threshold(detrended, config_.adaptive_k_sigma);
      report.channels[i].peaks =
          dsp::detect_peaks(detrended, channel.sample_rate(),
                            channel.start_time(), detect,
                            scratch->peak_detect);
    } else {
      report.channels[i].peaks =
          dsp::finish_peaks(detrended, channel.sample_rate(),
                            channel.start_time(), config_.peak_detect,
                            scratch->peak_detect);
    }
    samples[i] = channel.size();
    peaks[i] = report.channels[i].peaks.size();
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

  AnalysisStats fresh;
  for (std::size_t i = 0; i < n_channels; ++i) {
    fresh.samples_processed += samples[i];
    fresh.peaks_found += peaks[i];
  }
  fresh.processing_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Last-analyze snapshot as independent relaxed atomics: the hot path
  // never takes a stats lock; concurrent readers may mix fields from two
  // analyses but never observe a torn value.
  samples_processed_.store(fresh.samples_processed,
                           std::memory_order_relaxed);
  peaks_found_.store(fresh.peaks_found, std::memory_order_relaxed);
  processing_time_ns_.store(
      static_cast<std::uint64_t>(fresh.processing_time_s * 1e9),
      std::memory_order_relaxed);
  return result;
}

AnalysisStats AnalysisService::stats() const {
  AnalysisStats snapshot;
  snapshot.samples_processed =
      samples_processed_.load(std::memory_order_relaxed);
  snapshot.peaks_found = peaks_found_.load(std::memory_order_relaxed);
  snapshot.processing_time_s =
      static_cast<double>(processing_time_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  return snapshot;
}

}  // namespace medsen::cloud
