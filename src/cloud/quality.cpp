#include "cloud/quality.h"

#include <cmath>

namespace medsen::cloud {

namespace {

void record_failure(ChannelQuality& quality, QualityReason reason) {
  quality.failure_bits |= 1u << static_cast<std::uint8_t>(reason);
  if (more_severe(reason, quality.worst)) quality.worst = reason;
}

std::string describe(std::size_t channel, QualityReason reason) {
  const std::string label = "channel " + std::to_string(channel) + ": ";
  switch (reason) {
    case QualityReason::kEmptyChannel:
      return label + "empty";
    case QualityReason::kSaturated:
      return label + "saturated/implausible samples";
    case QualityReason::kDropout:
      return label + "dropouts (pinned samples)";
    case QualityReason::kNoiseFloor:
      return label + "noise floor too high";
    case QualityReason::kDrift:
      return label + "baseline drift out of range";
    default:
      return label + to_string(reason);
  }
}

/// An empty channel cannot be scored by the other checks; it carries
/// exactly one (severe) failure.
ChannelQuality empty_channel() {
  ChannelQuality quality;
  record_failure(quality, QualityReason::kEmptyChannel);
  return quality;
}

/// Scores from the raw-sample checks and the noise scan of a non-empty
/// channel.
ChannelQuality score(const dsp::RawSampleChecks& checks,
                     const dsp::DetrendedScan& noise,
                     const QualityConfig& config) {
  ChannelQuality quality;
  const std::size_t n = checks.size();
  quality.drift_span = checks.hi() - checks.lo();
  // A NaN fails every range comparison, so it is counted apart: one is
  // enough to reject the channel, whatever the 1 % allowance says.
  quality.saturated = checks.non_finite() > 0 || checks.outside() > n / 100;
  // There are n-1 adjacent pairs; a single sample has none and cannot
  // demonstrate a live signal, so it scores as fully pinned rather than
  // unconditionally clean.
  quality.dropout_fraction =
      n < 2 ? 1.0
            : static_cast<double>(checks.repeats()) /
                  static_cast<double>(n - 1);
  // Noise: rms of the first difference of the detrended signal, which is
  // insensitive to the (wanted) peaks but tracks broadband noise.
  if (noise.size() > 1)
    quality.noise_rms = std::sqrt(noise.diff_energy() /
                                  static_cast<double>(noise.size() - 1));

  // Every check is scored — a channel that is both saturated and noisy
  // reports both failures so recovery can reason about the combination.
  if (quality.saturated)
    record_failure(quality, QualityReason::kSaturated);
  if (quality.dropout_fraction > config.max_dropout_fraction)
    record_failure(quality, QualityReason::kDropout);
  if (quality.noise_rms > config.max_noise_rms)
    record_failure(quality, QualityReason::kNoiseFloor);
  if (quality.drift_span > config.max_drift_span)
    record_failure(quality, QualityReason::kDrift);
  return quality;
}

}  // namespace

std::vector<std::uint8_t> QualityReport::channel_failure_bytes() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(channels.size());
  // All QualityReason values are < 8, so the bitmask fits one byte.
  for (const auto& channel : channels)
    bytes.push_back(static_cast<std::uint8_t>(channel.failure_bits));
  return bytes;
}

ChannelQuality detrend_and_assess(std::span<const double> samples,
                                  std::span<double> detrended,
                                  util::ThreadPool* pool,
                                  dsp::DetrendWorkspace& workspace,
                                  dsp::DetrendedScan& scan,
                                  const QualityConfig& config) {
  if (samples.empty()) return empty_channel();
  dsp::RawSampleChecks checks(samples.front(), config.min_plausible,
                              config.max_plausible);
  dsp::detrend_into(samples, kQualityDetrend, detrended, pool, workspace,
                    scan, &checks);
  return score(checks, scan, config);
}

QualityReport summarize_quality(std::vector<ChannelQuality> channels) {
  QualityReport report;
  if (channels.empty()) {
    report.acceptable = false;
    report.reason_code = QualityReason::kNoChannels;
    report.reason = "no channels";
    return report;
  }
  // The summary code is the single highest-severity failure (ties broken
  // toward the lowest channel index) for wire compatibility with the
  // subcode byte.
  report.channels = std::move(channels);
  std::size_t worst_channel = 0;
  std::size_t failing = 0;
  for (std::size_t c = 0; c < report.channels.size(); ++c) {
    const QualityReason worst = report.channels[c].worst;
    if (worst != QualityReason::kNone) ++failing;
    if (more_severe(worst, report.reason_code)) {
      report.reason_code = worst;
      worst_channel = c;
    }
  }
  if (report.reason_code != QualityReason::kNone) {
    report.acceptable = false;
    report.reason = describe(worst_channel, report.reason_code);
    if (failing > 1)
      report.reason += " (+" + std::to_string(failing - 1) +
                       " more failing channel" +
                       (failing > 2 ? "s)" : ")");
  }
  return report;
}

QualityReport assess_quality(const util::MultiChannelSeries& series,
                             const QualityConfig& config) {
  // Score every channel against every check.
  std::vector<ChannelQuality> channels;
  channels.reserve(series.channels.size());
  std::vector<double> detrended;
  dsp::DetrendWorkspace workspace;
  for (const auto& channel : series.channels) {
    detrended.resize(channel.size());
    dsp::DetrendedScan noise;
    channels.push_back(detrend_and_assess(channel.samples(), detrended,
                                          nullptr, workspace, noise, config));
  }
  return summarize_quality(std::move(channels));
}

}  // namespace medsen::cloud
