#pragma once
// The analysis result the untrusted cloud returns to the sensor: detected
// peaks (timestamps, amplitudes, widths) per carrier channel of the
// *encrypted* signal. Contains no plaintext cytometry information — the
// controller decodes it with the key schedule.

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/peak_detect.h"

namespace medsen::core {

/// Peak list for one carrier channel.
struct ChannelPeaks {
  double carrier_hz = 0.0;
  std::vector<dsp::Peak> peaks;

  /// The amplitude of the peak nearest `time_s` within `tolerance_s`
  /// (inclusive; of equally near peaks the later one), or 0 when there is
  /// none: how the same particle transit is matched across carrier
  /// channels.
  [[nodiscard]] double amplitude_near(double time_s,
                                      double tolerance_s) const;
};

/// The full ciphertext-domain analysis report.
struct PeakReport {
  std::vector<ChannelPeaks> channels;

  /// Channel whose carrier is closest to `hz` (the 500 kHz reference for
  /// counting; classification uses several). Throws if empty.
  [[nodiscard]] const ChannelPeaks& nearest_channel(double hz) const;

  /// Total encrypted peak count on the reference channel.
  [[nodiscard]] std::size_t reference_peak_count(double hz = 5.0e5) const;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static PeakReport deserialize(std::span<const std::uint8_t> bytes);
};

}  // namespace medsen::core
