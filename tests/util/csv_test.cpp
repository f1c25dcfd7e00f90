#include "util/csv.h"

#include <gtest/gtest.h>

namespace medsen::util {
namespace {

MultiChannelSeries make_series() {
  MultiChannelSeries mcs;
  mcs.carrier_frequencies_hz = {5e5, 2e6};
  mcs.channels.emplace_back(450.0, std::vector<double>{1.0, 0.998, 1.001});
  mcs.channels.emplace_back(450.0, std::vector<double>{1.0, 0.997, 1.002});
  return mcs;
}

TEST(Csv, HeaderNamesCarriers) {
  const std::string text = to_csv(make_series());
  EXPECT_EQ(text.substr(0, text.find('\n')), "time,ch500000,ch2000000");
}

TEST(Csv, RowSizeScalesWithSamples) {
  // The compression benchmark relies on CSV size growing linearly.
  auto mcs = make_series();
  const auto small = to_csv(mcs).size();
  for (int i = 0; i < 100; ++i) {
    mcs.channels[0].push_back(1.0);
    mcs.channels[1].push_back(1.0);
  }
  EXPECT_GT(to_csv(mcs).size(), small + 100 * 3);
}

}  // namespace
}  // namespace medsen::util
