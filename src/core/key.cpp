#include "core/key.h"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/secure_zero.h"
#include "util/serialize.h"

namespace medsen::core {

double gain_value(const KeyParams& params, std::uint8_t code) {
  const std::uint32_t levels = params.gain_levels();
  const double frac = levels > 1
                          ? static_cast<double>(code % levels) /
                                static_cast<double>(levels - 1)
                          : 0.0;
  // Log spacing: gain = gmin * (gmax/gmin)^frac.
  return params.gain_min *
         std::pow(params.gain_max / params.gain_min, frac);
}

double flow_value(const KeyParams& params, std::uint8_t code) {
  const std::uint32_t levels = params.flow_levels();
  const double frac = levels > 1
                          ? static_cast<double>(code % levels) /
                                static_cast<double>(levels - 1)
                          : 0.0;
  return params.flow_min_ul_min +
         frac * (params.flow_max_ul_min - params.flow_min_ul_min);
}

namespace {

bool has_successive_pair(sim::ElectrodeMask mask) {
  return (mask & (mask >> 1)) != 0;
}

}  // namespace

SensorKey random_key(const KeyParams& params, crypto::ChaChaRng& rng) {
  if (params.num_electrodes == 0 || params.num_electrodes > 31)
    throw std::invalid_argument("random_key: electrodes must be in [1,31]");
  const auto full =
      static_cast<sim::ElectrodeMask>((1u << params.num_electrodes) - 1);

  SensorKey key;
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const auto mask = static_cast<sim::ElectrodeMask>(rng.next_u32()) & full;
    if (static_cast<std::size_t>(std::popcount(mask)) <
        params.min_active_electrodes)
      continue;
    if (params.avoid_successive_electrodes && has_successive_pair(mask))
      continue;
    key.electrodes = mask;
    break;
  }
  if (key.electrodes == 0) {
    // Pathological parameters (e.g. avoid_successive with tiny arrays):
    // fall back to the lowest admissible single electrode.
    key.electrodes = 1;
  }
  key.gain_codes.resize(params.num_electrodes);
  for (auto& code : key.gain_codes)
    code = static_cast<std::uint8_t>(rng.uniform(params.gain_levels()));
  key.flow_code = static_cast<std::uint8_t>(rng.uniform(params.flow_levels()));
  return key;
}

KeySchedule::KeySchedule(KeyParams params, std::vector<TimedKey> keys)
    : params_(params), keys_(std::move(keys)) {
  if (keys_.empty())
    throw std::invalid_argument("KeySchedule: needs at least one key");
}

KeySchedule::~KeySchedule() {
  for (auto& timed : keys_) {
    util::secure_wipe(timed.key.gain_codes);
    util::secure_zero(&timed.key.electrodes, sizeof(timed.key.electrodes));
    util::secure_zero(&timed.key.flow_code, sizeof(timed.key.flow_code));
  }
}

KeySchedule KeySchedule::generate(const KeyParams& params, double duration_s,
                                  crypto::ChaChaRng& rng) {
  if (duration_s <= 0.0 || params.period_s <= 0.0)
    throw std::invalid_argument("KeySchedule::generate: bad durations");
  std::vector<TimedKey> keys;
  for (double t = 0.0; t < duration_s; t += params.period_s)
    keys.push_back({t, random_key(params, rng)});
  return KeySchedule(params, std::move(keys));
}

KeySchedule KeySchedule::plaintext(const KeyParams& params,
                                   double duration_s) {
  (void)duration_s;
  SensorKey key;
  key.electrodes = 1;  // single output electrode
  key.gain_codes.assign(params.num_electrodes,
                        static_cast<std::uint8_t>(params.gain_levels() - 1));
  // Highest gain code maps to gain_max; pick the code whose value is
  // closest to 1.0 instead so plaintext amplitudes are unscaled.
  std::uint8_t best = 0;
  double best_err = 1e9;
  for (std::uint32_t c = 0; c < params.gain_levels(); ++c) {
    const double err =
        std::fabs(gain_value(params, static_cast<std::uint8_t>(c)) - 1.0);
    if (err < best_err) {
      best_err = err;
      best = static_cast<std::uint8_t>(c);
    }
  }
  key.gain_codes.assign(params.num_electrodes, best);
  // Nominal flow: the code nearest 0.08 uL/min (the evaluation's rate).
  std::uint8_t best_flow = 0;
  double best_flow_err = 1e9;
  for (std::uint32_t c = 0; c < params.flow_levels(); ++c) {
    const double err =
        std::fabs(flow_value(params, static_cast<std::uint8_t>(c)) - 0.08);
    if (err < best_flow_err) {
      best_flow_err = err;
      best_flow = static_cast<std::uint8_t>(c);
    }
  }
  key.flow_code = best_flow;
  return KeySchedule(params, {{0.0, key}});
}

const SensorKey& KeySchedule::key_at(double t) const {
  if (keys_.empty()) throw std::logic_error("key_at: empty schedule");
  const TimedKey* current = &keys_.front();
  for (const auto& tk : keys_) {
    if (tk.t_start_s <= t)
      current = &tk;
    else
      break;
  }
  return current->key;
}

std::vector<sim::ControlSegment> KeySchedule::control_trace() const {
  std::vector<sim::ControlSegment> trace;
  trace.reserve(keys_.size());
  for (const auto& tk : keys_) {
    sim::ControlSegment seg;
    seg.t_start_s = tk.t_start_s;
    seg.active_mask = tk.key.electrodes;
    seg.gains.reserve(tk.key.gain_codes.size());
    for (auto code : tk.key.gain_codes)
      seg.gains.push_back(gain_value(params_, code));
    seg.flow_ul_min = flow_value(params_, tk.key.flow_code);
    trace.push_back(std::move(seg));
  }
  return trace;
}

std::size_t KeySchedule::multiplication_factor(
    const sim::ElectrodeArrayDesign& design, double t) const {
  return design.peaks_per_particle(key_at(t).electrodes);
}

sim::ElectrodeMask KeySchedule::mask_electrodes(sim::ElectrodeMask excluded) {
  if (excluded == 0) return 0;
  const auto full =
      params_.num_electrodes >= 32
          ? ~sim::ElectrodeMask{0}
          : ((sim::ElectrodeMask{1} << params_.num_electrodes) - 1);
  sim::ElectrodeMask cleared = 0;
  for (auto& tk : keys_) {
    const sim::ElectrodeMask before = tk.key.electrodes & full;
    sim::ElectrodeMask after = before & ~excluded;
    if (after == 0) {
      // Never go fully dark: fall back to the lowest electrode outside
      // the exclusion so the attempt still counts particles.
      const sim::ElectrodeMask candidates = full & ~excluded;
      after = candidates & (~candidates + 1);  // lowest set bit (or 0)
      if (after == 0) after = before;          // everything excluded: keep
    }
    cleared |= before & ~after;
    tk.key.electrodes = after;
  }
  return cleared;
}

void KeySchedule::derate_flow(double scale) {
  if (scale >= 1.0) return;
  for (auto& tk : keys_) {
    const double target = scale * flow_value(params_, tk.key.flow_code);
    std::uint8_t best = 0;
    for (std::uint32_t c = 0; c < params_.flow_levels(); ++c) {
      const auto code = static_cast<std::uint8_t>(c);
      if (flow_value(params_, code) <= target &&
          flow_value(params_, code) >= flow_value(params_, best))
        best = code;
    }
    tk.key.flow_code = best;
  }
}

std::uint64_t KeySchedule::size_bits() const {
  const std::uint64_t per_key =
      params_.num_electrodes +
      static_cast<std::uint64_t>(params_.num_electrodes) * params_.gain_bits +
      params_.flow_bits;
  return per_key * keys_.size();
}

std::vector<std::uint8_t> KeySchedule::serialize() const {
  util::ByteWriter out;
  out.u32(static_cast<std::uint32_t>(params_.num_electrodes));
  out.u8(static_cast<std::uint8_t>(params_.gain_bits));
  out.u8(static_cast<std::uint8_t>(params_.flow_bits));
  out.f64(params_.gain_min);
  out.f64(params_.gain_max);
  out.f64(params_.flow_min_ul_min);
  out.f64(params_.flow_max_ul_min);
  out.f64(params_.period_s);
  out.u32(static_cast<std::uint32_t>(params_.min_active_electrodes));
  out.u8(params_.avoid_successive_electrodes ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(keys_.size()));
  // Sanctioned serialization: this buffer is stored only on the
  // controller (inside the TCB) and never crosses the wire — see the
  // header contract. The waived lines are the key fields themselves.
  for (const auto& tk : keys_) {
    out.f64(tk.t_start_s);
    out.u32(tk.key.electrodes);  // medsen: allow(secret-serialize)
    out.u32(static_cast<std::uint32_t>(
        tk.key.gain_codes.size()));  // medsen: allow(secret-serialize)
    for (auto code : tk.key.gain_codes) out.u8(code);
    out.u8(tk.key.flow_code);  // medsen: allow(secret-serialize)
  }
  return out.take();
}

KeySchedule KeySchedule::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  KeyParams params;
  params.num_electrodes = in.u32();
  params.gain_bits = in.u8();
  params.flow_bits = in.u8();
  params.gain_min = in.f64();
  params.gain_max = in.f64();
  params.flow_min_ul_min = in.f64();
  params.flow_max_ul_min = in.f64();
  params.period_s = in.f64();
  params.min_active_electrodes = in.u32();
  params.avoid_successive_electrodes = in.flag();
  // Minimum wire size per key: t_start (8) + electrodes (4) + gain
  // count (4) + flow code (1); per gain code: one byte.
  const std::uint32_t count = in.count_u32(17);
  std::vector<TimedKey> keys;
  keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TimedKey tk;
    tk.t_start_s = in.f64();
    tk.key.electrodes = in.u32();
    const std::uint32_t gains = in.count_u32(1);
    tk.key.gain_codes.resize(gains);
    for (auto& code : tk.key.gain_codes) code = in.u8();
    tk.key.flow_code = in.u8();
    keys.push_back(std::move(tk));
  }
  in.expect_done("KeySchedule");
  return KeySchedule(params, std::move(keys));
}

}  // namespace medsen::core
