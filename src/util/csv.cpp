#include "util/csv.h"

#include <cstdio>

namespace medsen::util {

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

std::string to_csv(const MultiChannelSeries& series) {
  std::string out;
  out += "time";
  for (double f : series.carrier_frequencies_hz) {
    out += ",ch";
    append_double(out, f);
  }
  out += '\n';
  if (series.channels.empty()) return out;

  const std::size_t n = series.channels.front().size();
  out.reserve(out.size() + n * (series.channels.size() + 1) * 14);
  for (std::size_t i = 0; i < n; ++i) {
    append_double(out, series.channels.front().time_at(i));
    for (const auto& ch : series.channels) {
      out += ',';
      append_double(out, i < ch.size() ? ch[i] : 0.0);
    }
    out += '\n';
  }
  return out;
}

}  // namespace medsen::util
