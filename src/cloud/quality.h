#pragma once
// Acquisition quality gate. Before spending analysis cycles (or worse,
// returning a peak report built on garbage), the cloud scores an uploaded
// acquisition: noise floor after detrending, residual drift, saturation /
// dropout detection, and per-channel consistency. Bad uploads — a
// disconnected dongle, an air bubble, clipped electronics — are rejected
// with a reason instead of silently producing a wrong diagnosis.
//
// Every channel is scored against every check: a multi-fault upload (one
// electrode open, another drifting) is fully characterized so the
// controller can plan recovery per channel. The summary `reason_code`
// stays the single highest-severity failure for wire compatibility.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsp/detrend.h"
#include "net/messages.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

namespace medsen::cloud {

/// The QualityReason values are part of the wire protocol and live in
/// net/messages.h; the cloud-side alias keeps existing call sites.
using QualityReason = net::QualityReason;
using net::more_severe;
using net::to_string;

struct ChannelQuality {
  double noise_rms = 0.0;        ///< detrended high-frequency residual
  double drift_span = 0.0;       ///< max-min of the raw baseline
  double dropout_fraction = 0.0; ///< samples pinned at a constant value
  /// Over 1 % of the raw samples outside the plausible range, or any
  /// sample NaN or infinite (detrend would flatten a NaN's whole window).
  bool saturated = false;
  /// Highest-severity failing check for this channel (kNone = clean).
  QualityReason worst = QualityReason::kNone;
  /// Bitmask of every failing check: bit (1u << reason) set per failure.
  std::uint32_t failure_bits = 0;

  [[nodiscard]] bool failed(QualityReason reason) const {
    return (failure_bits &
            (1u << static_cast<std::uint8_t>(reason))) != 0;
  }
};

struct QualityReport {
  std::vector<ChannelQuality> channels;
  bool acceptable = true;
  /// Highest-severity failure across all channels and checks.
  QualityReason reason_code = QualityReason::kNone;
  std::string reason;  ///< describes the worst channel, empty when clean

  /// Per-channel worst reasons as raw bytes (telemetry / logs).
  [[nodiscard]] std::vector<std::uint8_t> channel_reason_bytes() const;

  /// Per-channel failure bitmasks for ErrorPayload::channel_reasons: one
  /// byte per channel, bit (1u << reason) set for every failing check.
  /// The full signature matters: a channel whose worst failure is
  /// saturation may ALSO carry the systemic drift of a bubble transit,
  /// and recovery planning must see both to blame the right component.
  [[nodiscard]] std::vector<std::uint8_t> channel_failure_bytes() const;
};

struct QualityConfig {
  double max_noise_rms = 2e-3;       ///< vs typical peak depth 3e-3..1.3e-2
  double max_drift_span = 0.2;       ///< relative baseline wander
  double max_dropout_fraction = 0.05;
  double min_plausible = 0.3;        ///< raw normalized amplitude bounds
  double max_plausible = 1.7;
};

/// The detrend whose output the noise-floor check scores.
inline constexpr dsp::DetrendConfig kQualityDetrend{};

/// Score an acquisition. Never throws on bad data — that is the point.
QualityReport assess_quality(const util::MultiChannelSeries& series,
                             const QualityConfig& config = {});

/// Score one channel: `samples` as uploaded and `detrended`, the same
/// samples detrended with kQualityDetrend (what the noise check reads).
ChannelQuality assess_channel(std::span<const double> samples,
                              std::span<const double> detrended,
                              const QualityConfig& config = {});

/// assess_channel() over the kQualityDetrend detrend it scores, both in
/// the detrend's two passes: detrends `samples` into `detrended` (same
/// size) with `workspace` and `pool` as dsp::detrend_into does, checks
/// the raw samples in the fit pass and measures the noise in the
/// normalize pass, where `scan` runs (constructed with a threshold, it
/// also finds detect_peaks' regions for dsp::finish_peaks). The scores
/// are assess_channel(samples, detrended)'s, bit for bit. assess_quality()
/// and AnalysisService::analyze_gated() score every channel this way.
ChannelQuality detrend_and_assess(std::span<const double> samples,
                                  std::span<double> detrended,
                                  util::ThreadPool* pool,
                                  dsp::DetrendWorkspace& workspace,
                                  dsp::DetrendedScan& scan,
                                  const QualityConfig& config = {});

/// The report over per-channel scores, as assess_quality() builds it
/// (no channels at all is itself a failure).
QualityReport summarize_quality(std::vector<ChannelQuality> channels);

}  // namespace medsen::cloud
