#include "core/decryptor.h"

#include <stdexcept>
#include <utility>

namespace medsen::core {

double expected_gain(const SensorKey& key, const KeyParams& params,
                     const sim::ElectrodeArrayDesign& design) {
  double weighted = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < params.num_electrodes; ++i) {
    if (((key.electrodes >> i) & 1u) == 0) continue;
    const bool is_lead =
        (i == design.lead_index) && !design.fixed_lead_electrode;
    const double w = is_lead ? 1.0 : 2.0;
    const std::uint8_t code =
        i < key.gain_codes.size() ? key.gain_codes[i] : 0;
    weighted += w * gain_value(params, code);
    weight += w;
  }
  return weight > 0.0 ? weighted / weight : 1.0;
}

DecryptionResult decrypt_report(const PeakReport& report,
                                const KeySchedule& schedule,
                                const sim::ElectrodeArrayDesign& design,
                                double duration_s,
                                const DecryptorConfig& config) {
  if (schedule.empty())
    throw std::invalid_argument("decrypt_report: empty key schedule");
  DecryptionResult result;
  const ChannelPeaks& ref = report.nearest_channel(config.reference_hz);
  const auto& keys = schedule.keys();

  // Per-period peak counting and division by the multiplication factor.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    PeriodCount period;
    period.t_start_s = keys[k].t_start_s;
    period.t_end_s =
        (k + 1 < keys.size()) ? keys[k + 1].t_start_s : duration_s;
    period.multiplication =
        design.peaks_per_particle(keys[k].key.electrodes);
    for (const auto& p : ref.peaks)
      if (p.time_s >= period.t_start_s && p.time_s < period.t_end_s)
        ++period.encrypted_peaks;
    period.decoded =
        period.multiplication > 0
            ? static_cast<double>(period.encrypted_peaks) /
                  static_cast<double>(period.multiplication)
            : 0.0;
    result.estimated_count += period.decoded;
    result.periods.push_back(period);
  }

  // Per-peak amplitude / width correction.
  result.peaks.reserve(ref.peaks.size());
  for (const auto& p : ref.peaks) {
    const SensorKey& key = schedule.key_at(p.time_s);
    const double gain = expected_gain(key, schedule.params(), design);
    const double flow = flow_value(schedule.params(), key.flow_code);
    DecodedPeak decoded;
    decoded.time_s = p.time_s;
    // Peak width scales inversely with flow speed; normalize to the
    // reference flow.
    decoded.width_s = p.width_s * flow / config.reference_flow_ul_min;
    decoded.amplitudes.reserve(report.channels.size());
    for (const auto& ch : report.channels) {
      // Match by time across channels (same physical transit).
      const double amplitude =
          ch.amplitude_near(p.time_s, config.channel_match_tolerance_s);
      decoded.amplitudes.push_back(gain > 0.0 ? amplitude / gain : 0.0);
    }
    result.peaks.push_back(std::move(decoded));
  }
  return result;
}

}  // namespace medsen::core
