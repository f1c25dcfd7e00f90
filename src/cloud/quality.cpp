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

}  // namespace

std::vector<std::uint8_t> QualityReport::channel_reason_bytes() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(channels.size());
  for (const auto& channel : channels)
    bytes.push_back(static_cast<std::uint8_t>(channel.worst));
  return bytes;
}

std::vector<std::uint8_t> QualityReport::channel_failure_bytes() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(channels.size());
  // All QualityReason values are < 8, so the bitmask fits one byte.
  for (const auto& channel : channels)
    bytes.push_back(static_cast<std::uint8_t>(channel.failure_bits));
  return bytes;
}

ChannelQuality assess_channel(std::span<const double> samples,
                              std::span<const double> detrended,
                              const QualityConfig& config) {
  ChannelQuality quality;
  if (samples.empty()) {
    // An empty channel cannot be scored by the other checks; it carries
    // exactly one (severe) failure.
    record_failure(quality, QualityReason::kEmptyChannel);
    return quality;
  }

  // One pass over the raw samples. The extremes compare as
  // std::min_element / std::max_element do, so a NaN is skipped unless
  // it comes first.
  double lo = samples[0];
  double hi = samples[0];
  std::size_t out_of_range = 0;
  std::size_t non_finite = 0;
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double x = samples[i];
    if (x < lo) lo = x;
    if (hi < x) hi = x;
    if (x < config.min_plausible || x > config.max_plausible) ++out_of_range;
    if (!std::isfinite(x)) ++non_finite;
    if (i > 0 && x == samples[i - 1]) ++pinned;
  }
  quality.drift_span = hi - lo;
  // A NaN fails every range comparison, so it is counted apart: one is
  // enough to reject the channel, whatever the 1 % allowance says.
  quality.saturated =
      non_finite > 0 || out_of_range > samples.size() / 100;
  // `pinned` counts adjacent equal pairs, of which there are size()-1; a
  // single sample has no pairs and cannot demonstrate a live signal, so
  // it scores as fully pinned rather than unconditionally clean.
  quality.dropout_fraction =
      samples.size() < 2
          ? 1.0
          : static_cast<double>(pinned) /
                static_cast<double>(samples.size() - 1);

  // Noise: rms of the first difference of the detrended signal, which is
  // insensitive to the (wanted) peaks but tracks broadband noise.
  double acc = 0.0;
  for (std::size_t i = 1; i < detrended.size(); ++i) {
    const double d = detrended[i] - detrended[i - 1];
    acc += d * d;
  }
  if (detrended.size() > 1)
    quality.noise_rms =
        std::sqrt(acc / static_cast<double>(detrended.size() - 1));

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
  for (const auto& channel : series.channels)
    channels.push_back(assess_channel(
        channel.samples(), dsp::detrend(channel.samples(), kQualityDetrend),
        config));
  return summarize_quality(std::move(channels));
}

}  // namespace medsen::cloud
