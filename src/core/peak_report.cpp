#include "core/peak_report.h"

#include <cmath>
#include <stdexcept>

#include "util/serialize.h"

namespace medsen::core {

double ChannelPeaks::amplitude_near(double time_s,
                                    double tolerance_s) const {
  double amplitude = 0.0;
  double best_dt = tolerance_s;
  for (const auto& q : peaks) {
    const double dt = std::fabs(q.time_s - time_s);
    if (dt <= best_dt) {
      best_dt = dt;
      amplitude = q.amplitude;
    }
  }
  return amplitude;
}

const ChannelPeaks& PeakReport::nearest_channel(double hz) const {
  if (channels.empty())
    throw std::logic_error("PeakReport: no channels");
  const ChannelPeaks* best = &channels.front();
  for (const auto& ch : channels)
    if (std::fabs(ch.carrier_hz - hz) < std::fabs(best->carrier_hz - hz))
      best = &ch;
  return *best;
}

std::size_t PeakReport::reference_peak_count(double hz) const {
  return nearest_channel(hz).peaks.size();
}

std::vector<std::uint8_t> PeakReport::serialize() const {
  util::ByteWriter out;
  out.u32(static_cast<std::uint32_t>(channels.size()));
  for (const auto& ch : channels) {
    out.f64(ch.carrier_hz);
    out.u32(static_cast<std::uint32_t>(ch.peaks.size()));
    for (const auto& p : ch.peaks) {
      out.f64(p.time_s);
      out.f64(p.amplitude);
      out.f64(p.width_s);
      out.u64(p.index);
    }
  }
  return out.take();
}

PeakReport PeakReport::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  PeakReport report;
  // Minimum wire size per channel: carrier (8) + peak count (4); per
  // peak: three f64 fields + u64 index (32). count_u32 rejects counts
  // the buffer cannot hold before the reserve below can allocate.
  const std::uint32_t nch = in.count_u32(12);
  report.channels.reserve(nch);
  for (std::uint32_t c = 0; c < nch; ++c) {
    ChannelPeaks ch;
    ch.carrier_hz = in.f64();
    const std::uint32_t np = in.count_u32(32);
    ch.peaks.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i) {
      dsp::Peak p;
      p.time_s = in.f64();
      p.amplitude = in.f64();
      p.width_s = in.f64();
      p.index = in.u64();
      ch.peaks.push_back(p);
    }
    report.channels.push_back(std::move(ch));
  }
  in.expect_done("PeakReport");
  return report;
}

}  // namespace medsen::core
