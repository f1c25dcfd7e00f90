#include "core/key.h"

#include <gtest/gtest.h>

#include <bit>

namespace medsen::core {
namespace {

KeyParams nine_electrode_params() {
  KeyParams p;
  p.num_electrodes = 9;
  return p;
}

TEST(Key, GainValueSpansRange) {
  const KeyParams p = nine_electrode_params();
  EXPECT_NEAR(gain_value(p, 0), p.gain_min, 1e-12);
  EXPECT_NEAR(gain_value(p, 15), p.gain_max, 1e-12);
  for (std::uint8_t c = 1; c < 16; ++c)
    EXPECT_GT(gain_value(p, c), gain_value(p, static_cast<std::uint8_t>(c - 1)));
}

TEST(Key, FlowValueSpansRange) {
  const KeyParams p = nine_electrode_params();
  EXPECT_NEAR(flow_value(p, 0), p.flow_min_ul_min, 1e-12);
  EXPECT_NEAR(flow_value(p, 15), p.flow_max_ul_min, 1e-12);
}

TEST(Key, RandomKeyRespectsMinActive) {
  KeyParams p = nine_electrode_params();
  p.min_active_electrodes = 3;
  crypto::ChaChaRng rng(1);
  for (int i = 0; i < 200; ++i) {
    const SensorKey key = random_key(p, rng);
    EXPECT_GE(std::popcount(key.electrodes), 3);
  }
}

TEST(Key, AvoidSuccessiveElectrodes) {
  KeyParams p = nine_electrode_params();
  p.avoid_successive_electrodes = true;
  crypto::ChaChaRng rng(2);
  for (int i = 0; i < 200; ++i) {
    const SensorKey key = random_key(p, rng);
    EXPECT_EQ(key.electrodes & (key.electrodes >> 1), 0u) << key.electrodes;
  }
}

TEST(Key, RandomKeyGainCodesInRange) {
  const KeyParams p = nine_electrode_params();
  crypto::ChaChaRng rng(3);
  const SensorKey key = random_key(p, rng);
  EXPECT_EQ(key.gain_codes.size(), 9u);
  for (auto code : key.gain_codes) EXPECT_LT(code, 16);
  EXPECT_LT(key.flow_code, 16);
}

TEST(KeySchedule, GenerateCoversDuration) {
  KeyParams p = nine_electrode_params();
  p.period_s = 2.0;
  crypto::ChaChaRng rng(4);
  const auto schedule = KeySchedule::generate(p, 10.0, rng);
  EXPECT_EQ(schedule.keys().size(), 5u);
  EXPECT_DOUBLE_EQ(schedule.keys().front().t_start_s, 0.0);
}

TEST(KeySchedule, KeyAtSelectsPeriod) {
  KeyParams p = nine_electrode_params();
  p.period_s = 1.0;
  crypto::ChaChaRng rng(5);
  const auto schedule = KeySchedule::generate(p, 5.0, rng);
  EXPECT_EQ(schedule.key_at(0.5).electrodes,
            schedule.keys()[0].key.electrodes);
  EXPECT_EQ(schedule.key_at(3.2).electrodes,
            schedule.keys()[3].key.electrodes);
  EXPECT_EQ(schedule.key_at(99.0).electrodes,
            schedule.keys().back().key.electrodes);
}

TEST(KeySchedule, ControlTraceMirrorsKeys) {
  KeyParams p = nine_electrode_params();
  crypto::ChaChaRng rng(6);
  const auto schedule = KeySchedule::generate(p, 6.0, rng);
  const auto trace = schedule.control_trace();
  ASSERT_EQ(trace.size(), schedule.keys().size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].active_mask, schedule.keys()[i].key.electrodes);
    EXPECT_EQ(trace[i].gains.size(), 9u);
    EXPECT_GE(trace[i].flow_ul_min, p.flow_min_ul_min - 1e-12);
    EXPECT_LE(trace[i].flow_ul_min, p.flow_max_ul_min + 1e-12);
  }
}

TEST(KeySchedule, SerializationRoundTrip) {
  KeyParams p = nine_electrode_params();
  p.avoid_successive_electrodes = true;
  crypto::ChaChaRng rng(7);
  const auto schedule = KeySchedule::generate(p, 8.0, rng);
  const auto restored = KeySchedule::deserialize(schedule.serialize());
  ASSERT_EQ(restored.keys().size(), schedule.keys().size());
  for (std::size_t i = 0; i < schedule.keys().size(); ++i) {
    EXPECT_EQ(restored.keys()[i].key.electrodes,
              schedule.keys()[i].key.electrodes);
    EXPECT_EQ(restored.keys()[i].key.gain_codes,
              schedule.keys()[i].key.gain_codes);
    EXPECT_EQ(restored.keys()[i].key.flow_code,
              schedule.keys()[i].key.flow_code);
  }
  EXPECT_EQ(restored.params().avoid_successive_electrodes, true);
}

TEST(KeySchedule, TrailingBytesRejected) {
  crypto::ChaChaRng rng(7);
  const auto schedule =
      KeySchedule::generate(nine_electrode_params(), 4.0, rng);
  auto bytes = schedule.serialize();
  bytes.push_back(0x55);
  EXPECT_THROW(KeySchedule::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(KeySchedule::deserialize(bytes));
}

TEST(KeySchedule, FlagAboveOneRejected) {
  crypto::ChaChaRng rng(7);
  const auto schedule =
      KeySchedule::generate(nine_electrode_params(), 4.0, rng);
  auto bytes = schedule.serialize();
  // avoid_successive_electrodes is the last byte of the 51-byte params
  // block.
  bytes[50] = 0x02;
  EXPECT_THROW(KeySchedule::deserialize(bytes), std::runtime_error);
  bytes[50] = 0x01;
  EXPECT_TRUE(KeySchedule::deserialize(bytes).params()
                  .avoid_successive_electrodes);
}

TEST(KeySchedule, TruncatedDeserializationThrows) {
  crypto::ChaChaRng rng(7);
  const auto schedule =
      KeySchedule::generate(nine_electrode_params(), 4.0, rng);
  const auto bytes = schedule.serialize();
  const std::span<const std::uint8_t> cut(bytes.data(), bytes.size() - 3);
  EXPECT_THROW(KeySchedule::deserialize(cut), std::out_of_range);
}

TEST(KeySchedule, HostileKeyCountRejectedBeforeAllocation) {
  crypto::ChaChaRng rng(7);
  const auto schedule =
      KeySchedule::generate(nine_electrode_params(), 4.0, rng);
  auto bytes = schedule.serialize();
  // The key count lives right after the 51-byte params block; claim
  // 2^32-1 keys and drop the body.
  bytes.resize(55);
  bytes[51] = bytes[52] = bytes[53] = bytes[54] = 0xFF;
  EXPECT_THROW(KeySchedule::deserialize(bytes), std::out_of_range);
}

TEST(KeySchedule, SizeBitsFormula) {
  KeyParams p = nine_electrode_params();  // 9 + 9*4 + 4 = 49 bits/key
  p.period_s = 1.0;
  crypto::ChaChaRng rng(8);
  const auto schedule = KeySchedule::generate(p, 10.0, rng);
  EXPECT_EQ(schedule.size_bits(), 10u * 49u);
}

TEST(KeySchedule, PlaintextIsSingleStableKey) {
  const KeyParams p = nine_electrode_params();
  const auto schedule = KeySchedule::plaintext(p, 60.0);
  ASSERT_EQ(schedule.keys().size(), 1u);
  EXPECT_EQ(std::popcount(schedule.keys()[0].key.electrodes), 1);
  // Gain code closest to unit gain.
  const double g =
      gain_value(p, schedule.keys()[0].key.gain_codes.front());
  EXPECT_NEAR(g, 1.0, 0.1);
  const double f = flow_value(p, schedule.keys()[0].key.flow_code);
  EXPECT_NEAR(f, 0.08, 0.01);
}

TEST(KeySchedule, MultiplicationFactorTracksDesign) {
  const auto design = sim::standard_design(9);
  KeyParams p = nine_electrode_params();
  p.period_s = 1.0;
  crypto::ChaChaRng rng(9);
  const auto schedule = KeySchedule::generate(p, 4.0, rng);
  for (const auto& tk : schedule.keys()) {
    EXPECT_EQ(schedule.multiplication_factor(design, tk.t_start_s + 0.5),
              design.peaks_per_particle(tk.key.electrodes));
  }
}

TEST(KeySchedule, GenerateRejectsBadDurations) {
  const KeyParams p = nine_electrode_params();
  crypto::ChaChaRng rng(10);
  EXPECT_THROW(KeySchedule::generate(p, 0.0, rng), std::invalid_argument);
  KeyParams bad = p;
  bad.period_s = 0.0;
  EXPECT_THROW(KeySchedule::generate(bad, 5.0, rng), std::invalid_argument);
}

TEST(Key, RandomKeysDiffer) {
  const KeyParams p = nine_electrode_params();
  crypto::ChaChaRng rng(11);
  const SensorKey a = random_key(p, rng);
  const SensorKey b = random_key(p, rng);
  EXPECT_TRUE(a.electrodes != b.electrodes || a.gain_codes != b.gain_codes ||
              a.flow_code != b.flow_code);
}

}  // namespace
}  // namespace medsen::core
