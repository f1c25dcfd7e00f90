// Section VII-B data-transfer experiment: a 3 h acquisition produced
// ~600 MB of CSV measurements which the phone's zip stage reduced to
// ~240 MB (2.5x). Scaled down here: multi-minute 8-carrier acquisitions
// rendered to CSV and pushed through the LZSS+Huffman codec. The shape to
// match is the ~2-3x ratio on CSV sensor dumps.
//
// Three cases cover the relay's two-carrier 20 s upload window:
// relay_planes is what the relay sends (net::pack_series: byte planes,
// only the low-entropy ones through the codec), raw_series the
// uncompressed upload (net::serialize_series / deserialize_series, the
// doubles as they are), and relay_upload the whole serialized series in
// one compress() call, as relays sent it before byte planes and as the
// cloud still accepts it. Every case reports encode and decode
// throughput against the uncompressed size (median of several runs) and
// the ratio, and the run writes BENCH_compression.json for
// tools/bench/check_dsp_floor.py (--floor
// tools/bench/compression_floor.json). `--smoke`, the CI preset, runs the
// three window cases and the 60 s CSV dump only.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "compress/codec.h"
#include "net/messages.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace medsen;

namespace {

struct CaseResult {
  std::size_t packed_bytes = 0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median encode and decode times over `reps` round trips; returns
/// nothing if any decode does not reproduce the input (`same`).
template <typename Encode, typename Decode, typename Same>
std::optional<CaseResult> measure(const Encode& encode, const Decode& decode,
                                  const Same& same, int reps) {
  std::vector<double> compress_s;
  std::vector<double> decompress_s;
  std::vector<std::uint8_t> packed;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    packed = encode();
    compress_s.push_back(seconds_since(start));
    start = std::chrono::steady_clock::now();
    const auto unpacked = decode(packed);
    decompress_s.push_back(seconds_since(start));
    if (!same(unpacked)) return std::nullopt;
  }
  return CaseResult{packed.size(), util::median(compress_s),
                    util::median(decompress_s)};
}

/// A codec round trip over `data`.
std::function<std::optional<CaseResult>()> codec_case(
    std::vector<std::uint8_t> data, int reps) {
  return [data = std::move(data), reps] {
    return measure([&] { return compress::compress(data); },
                   [](std::span<const std::uint8_t> packed) {
                     return compress::decompress(packed);
                   },
                   [&](const std::vector<std::uint8_t>& out) {
                     return out == data;
                   },
                   reps);
  };
}

/// A series codec round trip over `series`; the decoded series must be
/// bit-identical (compared through its serialized bytes).
template <typename Encode, typename Decode>
std::function<std::optional<CaseResult>()> series_case(
    util::MultiChannelSeries series, Encode encode, Decode decode, int reps) {
  return [series = std::move(series), encode, decode, reps] {
    const auto expected = net::serialize_series(series);
    return measure([&] { return encode(series); }, decode,
                   [&](const util::MultiChannelSeries& out) {
                     return net::serialize_series(out) == expected;
                   },
                   reps);
  };
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bench::header("Compression (600 MB -> 240 MB experiment, scaled)",
                "zip compression of CSV sensor dumps achieves ~2.5x");

  auto design = sim::standard_design(9);
  const auto channel = bench::default_channel();
  const auto control = bench::fixed_control(0b101);
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 300.0},
                       {sim::ParticleType::kBead358, 150.0}};

  struct Case {
    std::string name;
    std::size_t bytes;  ///< uncompressed size: ratio and MB/s refer to it
    std::function<std::optional<CaseResult>()> run;
  };
  std::vector<Case> cases;
  // The relay's upload: two carriers, one 20 s measurement window.
  const auto window = sim::acquire(sample, channel, design,
                                   bench::quiet_acquisition(), control, 20.0,
                                   99);
  const std::size_t window_bytes = net::serialized_series_size(window.signals);
  cases.push_back({"relay_planes", window_bytes,
                   series_case(window.signals, net::pack_series,
                               net::deserialize_packed_series, 15)});
  cases.push_back({"raw_series", window_bytes,
                   series_case(window.signals, net::serialize_series,
                               net::deserialize_series, 15)});
  cases.push_back({"relay_upload", window_bytes,
                   codec_case(net::serialize_series(window.signals), 15)});
  // Full 8-carrier configuration like the prototype, rendered to CSV.
  const auto csv_config = bench::quiet_acquisition(
      {5.0e5, 8.0e5, 1.0e6, 1.2e6, 1.4e6, 2.0e6, 3.0e6, 4.0e6});
  const std::vector<double> durations =
      smoke ? std::vector<double>{60.0} : std::vector<double>{60.0, 180.0,
                                                              420.0};
  for (const double duration : durations) {
    const auto result = sim::acquire(sample, channel, design, csv_config,
                                     control, duration, 99);
    const std::string csv = util::to_csv(result.signals);
    cases.push_back({"csv_" + std::to_string(static_cast<int>(duration)) +
                         "s",
                     csv.size(),
                     codec_case({csv.begin(), csv.end()}, 3)});
  }

  bench::JsonCounters json("compression");
  std::printf(
      "case,bytes,compressed_bytes,ratio,comp_MB_per_s,decomp_MB_per_s\n");
  for (const Case& c : cases) {
    const auto result = c.run();
    if (!result) {
      std::printf("%s: ROUND TRIP FAILED\n", c.name.c_str());
      return 1;
    }
    const double mb = static_cast<double>(c.bytes) / 1.0e6;
    const double ratio =
        compress::compression_ratio(c.bytes, result->packed_bytes);
    std::printf("%s,%zu,%zu,%.2f,%.1f,%.1f\n", c.name.c_str(), c.bytes,
                result->packed_bytes, ratio, mb / result->compress_s,
                mb / result->decompress_s);
    json.set_count(c.name + ".bytes", c.bytes);
    json.set(c.name + ".ratio", ratio);
    json.set(c.name + ".compress_mb_s", mb / result->compress_s);
    json.set(c.name + ".decompress_mb_s", mb / result->decompress_s);
  }
  std::printf("paper: 600 MB -> 240 MB is a 2.50x ratio\n");
  json.write();
  return 0;
}
