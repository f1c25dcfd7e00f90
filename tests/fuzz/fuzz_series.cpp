// Fuzz target: the acquisition decoders CloudServer::decode_series runs
// on every MAC-valid upload — net::deserialize_series (uncompressed
// uploads) and net::deserialize_packed_series (MSP1 byte planes, or one
// MSZ1 container holding a whole serialized series). Every input goes
// to both decoders.
//
// Properties checked on accepted inputs:
//   * deserialize_series: serialize_series(decoded) == x (a bijection)
//   * either decoder: re-packing the decoded series with pack_series and
//     decoding the result reproduces it bit-exactly (NaN payloads, -0.0
//     and denormals included)

#include "fuzz_target.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>

#include "net/messages.h"

namespace {

using medsen::util::MultiChannelSeries;

template <typename Decode>
std::optional<MultiChannelSeries> try_decode(const Decode& decode) {
  try {
    return decode();
  } catch (const std::out_of_range&) {
    return std::nullopt;  // truncated
  } catch (const std::runtime_error&) {
    return std::nullopt;  // magic/size/CRC/strictness rejection
  }
}

void check_repack(const MultiChannelSeries& series) {
  // serialize_series carries every double as its bit pattern, so equal
  // bytes mean a bit-exact series.
  const auto expected = medsen::net::serialize_series(series);
  const auto repacked = medsen::net::deserialize_packed_series(
      medsen::net::pack_series(series));
  if (medsen::net::serialize_series(repacked) != expected) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);

  if (const auto series = try_decode(
          [&] { return medsen::net::deserialize_series(input); })) {
    const auto round_trip = medsen::net::serialize_series(*series);
    if (round_trip.size() != size ||
        !std::equal(round_trip.begin(), round_trip.end(), data))
      std::abort();
    check_repack(*series);
  }
  if (const auto series = try_decode(
          [&] { return medsen::net::deserialize_packed_series(input); }))
    check_repack(*series);
  return 0;
}
