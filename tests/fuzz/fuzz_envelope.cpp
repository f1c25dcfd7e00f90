// Fuzz target: net::Envelope::deserialize, plus the per-type payload
// decoders an accepted envelope routes to — the exact code path a
// hostile relay reaches at the CloudServer boundary.
//
// Properties checked on accepted inputs:
//   * serialize(deserialize(x)) == x  (strict decoding is a bijection
//     between accepted byte strings and envelopes)
//   * the payload decoder for the envelope's type either throws one of
//     the two structured rejection types or accepts a payload that
//     re-serializes to the same bytes (the bijection extends to every
//     payload, flag bytes included)

#include "fuzz_target.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/messages.h"

namespace {

/// Decode the payload for the envelope's type and re-serialize it;
/// nullopt for types this target does not decode.
std::optional<std::vector<std::uint8_t>> payload_round_trip(
    const medsen::net::Envelope& envelope) {
  using medsen::net::MessageType;
  const std::span<const std::uint8_t> payload(envelope.payload);
  switch (envelope.type) {
    case MessageType::kSignalUpload:
      return medsen::net::SignalUploadPayload::deserialize(payload)
          .serialize();
    case MessageType::kAnalysisResult:
      // PeakReport decoding has its own target; the envelope target
      // stops at the envelope layer for this type.
      return std::nullopt;
    case MessageType::kAuthDecision:
      return medsen::net::AuthDecisionPayload::deserialize(payload)
          .serialize();
    case MessageType::kError:
      return medsen::net::ErrorPayload::deserialize(payload).serialize();
    case MessageType::kAuthPass:
      return medsen::net::AuthPassPayload::deserialize(payload).serialize();
    case MessageType::kAuthChallenge:
      return medsen::net::AuthChallengePayload::deserialize(payload)
          .serialize();
    case MessageType::kAuthResponse:
      return medsen::net::AuthResponsePayload::deserialize(payload)
          .serialize();
    case MessageType::kProgress:
    default:
      return std::nullopt;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  medsen::net::Envelope envelope;
  try {
    envelope = medsen::net::Envelope::deserialize(input);
  } catch (const std::out_of_range&) {
    return 0;  // truncated
  } catch (const std::runtime_error&) {
    return 0;  // strictness rejection
  }

  const auto round_trip = envelope.serialize();
  if (round_trip.size() != size ||
      !std::equal(round_trip.begin(), round_trip.end(), data))
    std::abort();  // accepted input failed to round-trip bit-identically

  std::optional<std::vector<std::uint8_t>> payload;
  try {
    payload = payload_round_trip(envelope);
  } catch (const std::out_of_range&) {
    return 0;
  } catch (const std::runtime_error&) {
    return 0;
  }
  if (payload.has_value() && *payload != envelope.payload)
    std::abort();  // accepted payload failed to round-trip bit-identically
  return 0;
}
