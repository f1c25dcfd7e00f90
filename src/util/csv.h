#pragma once
// Minimal CSV writer. The paper's prototype captures bio-sensor
// measurements in CSV files before compressing them on the phone; the
// compression benchmark (600 MB -> 240 MB experiment) reproduces that
// data layout.

#include <string>

#include "util/time_series.h"

namespace medsen::util {

/// Serialize a multi-channel acquisition to CSV text:
/// header "time,ch<f0>,ch<f1>,..." then one row per sample instant.
std::string to_csv(const MultiChannelSeries& series);

}  // namespace medsen::util
