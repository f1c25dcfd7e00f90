// Seed-corpus generator. The checked-in corpora under
// tests/fuzz/corpus/<target>/ were produced by this tool; re-run it
// after a wire-format change and commit the result:
//
//   cmake --build build --target make_corpus
//   ./build/tests/fuzz/make_corpus tests/fuzz/corpus

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "core/peak_report.h"
#include "net/frame.h"
#include "net/messages.h"

namespace {

void write(const std::filesystem::path& dir, const std::string& name,
           const std::vector<std::uint8_t>& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> ascii(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_corpus <corpus-root>\n";
    return 2;
  }
  const std::filesystem::path root = argv[1];
  const std::vector<std::uint8_t> key = {1, 2, 3, 4, 5, 6, 7, 8};

  // --- envelope -------------------------------------------------------
  using medsen::net::MessageType;
  medsen::net::SignalUploadPayload upload;
  upload.compressed = false;
  upload.sample_rate_hz = 450.0;
  upload.data = {1, 2, 3, 4, 5, 6, 7, 8};
  write(root / "envelope", "upload.bin",
        medsen::net::make_envelope(MessageType::kSignalUpload, 7, 1,
                                   upload.serialize(), key)
            .serialize());

  medsen::net::AuthPassPayload pass;
  pass.upload = upload;
  pass.volume_ul = 0.75;
  pass.duration_s = 420.0;
  write(root / "envelope", "auth_pass.bin",
        medsen::net::make_envelope(MessageType::kAuthPass, 8, 2,
                                   pass.serialize(), key)
            .serialize());

  medsen::net::ErrorPayload error;
  error.code = medsen::net::ErrorCode::kQualityRejected;
  error.subcode = 3;
  error.detail = "saturated";
  write(root / "envelope", "error.bin",
        medsen::net::make_envelope(MessageType::kError, 9, 3,
                                   error.serialize(), key)
            .serialize());

  medsen::net::AuthDecisionPayload decision;
  decision.authenticated = true;
  decision.user_id = "alice";
  decision.distance = 0.25;
  write(root / "envelope", "decision.bin",
        medsen::net::make_envelope(MessageType::kAuthDecision, 10, 4,
                                   decision.serialize(), key)
            .serialize());

  write(root / "envelope", "empty_payload.bin",
        medsen::net::make_envelope(MessageType::kProgress, 0, 0, {}, key)
            .serialize());

  medsen::net::AuthChallengePayload challenge;
  challenge.key_epoch = 1;
  for (std::size_t i = 0; i < challenge.challenge.size(); ++i)
    challenge.challenge[i] = static_cast<std::uint8_t>(0xA0 + i);
  write(root / "envelope", "auth_challenge.bin",
        medsen::net::make_envelope(MessageType::kAuthChallenge, 11, 5,
                                   challenge.serialize(), key)
            .serialize());

  medsen::net::AuthResponsePayload handshake_response;
  for (std::size_t i = 0; i < handshake_response.challenge.size(); ++i) {
    handshake_response.challenge[i] = static_cast<std::uint8_t>(0xB0 + i);
    handshake_response.proof[i] = static_cast<std::uint8_t>(0xC0 + i);
  }
  write(root / "envelope", "auth_response.bin",
        medsen::net::make_envelope(MessageType::kAuthResponse, 11, 5,
                                   handshake_response.serialize(), key)
            .serialize());

  // A session-plane command: nonzero counter, MAC-covered.
  write(root / "envelope", "counter_upload.bin",
        medsen::net::make_envelope(MessageType::kSignalUpload, 11, 5,
                                   upload.serialize(), key, /*counter=*/3)
            .serialize());

  // --- handshake ------------------------------------------------------
  // First corpus byte selects the decoder: even = challenge, odd =
  // response (matching fuzz_handshake.cpp).
  {
    std::vector<std::uint8_t> seed;
    seed.push_back(0);
    const auto chal_bytes = challenge.serialize();
    seed.insert(seed.end(), chal_bytes.begin(), chal_bytes.end());
    write(root / "handshake", "challenge.bin", seed);

    seed.clear();
    seed.push_back(1);
    const auto resp_bytes = handshake_response.serialize();
    seed.insert(seed.end(), resp_bytes.begin(), resp_bytes.end());
    write(root / "handshake", "response.bin", seed);

    // Strictness probes: truncated and trailing-byte variants.
    seed.clear();
    seed.push_back(0);
    seed.insert(seed.end(), chal_bytes.begin(), chal_bytes.end() - 1);
    write(root / "handshake", "challenge_truncated.bin", seed);

    seed.clear();
    seed.push_back(1);
    seed.insert(seed.end(), resp_bytes.begin(), resp_bytes.end());
    seed.push_back(0xFF);
    write(root / "handshake", "response_trailing.bin", seed);
  }

  // --- frame ----------------------------------------------------------
  write(root / "frame", "empty.bin", medsen::net::frame_encode({}));
  write(root / "frame", "short.bin",
        medsen::net::frame_encode(ascii("hello")));
  write(root / "frame", "envelope.bin",
        medsen::net::frame_encode(
            medsen::net::make_envelope(MessageType::kSignalUpload, 1, 1,
                                       upload.serialize(), key)
                .serialize()));

  // --- codec ----------------------------------------------------------
  write(root / "codec", "empty.bin", medsen::compress::compress({}));
  write(root / "codec", "text.bin",
        medsen::compress::compress_string(
            "time,ch0,ch1\n0.000,1.002,0.998\n0.002,1.001,0.999\n"));
  write(root / "codec", "single.bin", medsen::compress::compress(
                                          std::vector<std::uint8_t>{42}));
  std::vector<std::uint8_t> repetitive;
  for (int i = 0; i < 512; ++i)
    repetitive.push_back(static_cast<std::uint8_t>(i % 7));
  write(root / "codec", "repetitive.bin",
        medsen::compress::compress(repetitive));

  // --- peak_report ----------------------------------------------------
  medsen::core::PeakReport report;
  medsen::core::ChannelPeaks ch;
  ch.carrier_hz = 5.0e5;
  ch.peaks = {{1.0, 0.01, 0.02, 450}, {2.0, 0.02, 0.03, 900}};
  report.channels.push_back(ch);
  ch.carrier_hz = 2.0e6;
  ch.peaks = {{1.5, 0.005, 0.02, 675}};
  report.channels.push_back(ch);
  write(root / "peak_report", "two_channels.bin", report.serialize());
  write(root / "peak_report", "empty.bin",
        medsen::core::PeakReport{}.serialize());

  // --- series ---------------------------------------------------------
  // fuzz_series feeds every seed to both series decoders.
  {
    const auto channel = [](std::vector<double> samples, double carrier_hz) {
      medsen::util::MultiChannelSeries series;
      series.carrier_frequencies_hz = {carrier_hz};
      series.channels.emplace_back(450.0, std::move(samples), 0.5);
      return series;
    };
    // Two short channels with the doubles a decoder must carry bit-exactly.
    auto special = channel({1.0, -0.0, 5e-324, -1e308, 0.999}, 5.0e5);
    special.carrier_frequencies_hz.push_back(2.0e6);
    special.channels.emplace_back(
        900.0, std::vector<double>{std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::quiet_NaN()},
        1.0);
    // A baseline near 1.0 with LCG noise in the low mantissa bytes.
    std::vector<double> noise(512);
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (auto& x : noise) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      x = 1.0 + 1e-4 * (static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5);
    }
    const auto noisy = channel(std::move(noise), 5.0e5);

    write(root / "series", "raw.bin", medsen::net::serialize_series(special));
    // One MSZ1 container holding the whole series (older relays).
    write(root / "series", "whole_msz1.bin",
          medsen::compress::compress(medsen::net::serialize_series(noisy)));
    // MSP1 with raw noise planes and coded top planes, and MSP1 with
    // every plane raw (too short for the codec to win). The coded-plane
    // mask of channel 0 sits at byte 36.
    const auto mixed = medsen::net::pack_series(noisy);
    const auto all_raw = medsen::net::pack_series(special);
    if (mixed[36] == 0 || mixed[36] == 0xFF || all_raw[36] != 0) {
      std::cerr << "make_corpus: series seeds lost their plane split\n";
      return 1;
    }
    write(root / "series", "planes_mixed.bin", mixed);
    write(root / "series", "planes_raw.bin", all_raw);
  }

  // --- crypto ---------------------------------------------------------
  // Layout (fuzz_crypto.cpp): key length, split byte, key, message. The
  // first 16 bytes also key the AES check.
  {
    const auto hmac_seed = [](const std::vector<std::uint8_t>& hmac_key,
                              const std::vector<std::uint8_t>& message) {
      std::vector<std::uint8_t> seed = {
          static_cast<std::uint8_t>(hmac_key.size()), 0x80};
      seed.insert(seed.end(), hmac_key.begin(), hmac_key.end());
      seed.insert(seed.end(), message.begin(), message.end());
      return seed;
    };
    // FIPS-197 C.1: key 00..0f, then the plaintext 00 11 .. ff.
    std::vector<std::uint8_t> fips197;
    for (int i = 0; i < 16; ++i)
      fips197.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 16; ++i)
      fips197.push_back(static_cast<std::uint8_t>(i * 0x11));
    write(root / "crypto", "fips197_c1.bin", fips197);
    write(root / "crypto", "fips180_abc.bin", ascii("abc"));
    write(root / "crypto", "fips180_two_block.bin",
          ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    write(root / "crypto", "rfc4231_case1.bin",
          hmac_seed(std::vector<std::uint8_t>(20, 0x0b), ascii("Hi There")));
    write(root / "crypto", "rfc4231_case2.bin",
          hmac_seed(ascii("Jefe"), ascii("what do ya want for nothing?")));
    write(root / "crypto", "rfc4231_case6.bin",
          hmac_seed(std::vector<std::uint8_t>(131, 0xaa),
                    ascii("Test Using Larger Than Block-Size Key - Hash Key "
                          "First")));
    // SHA-256 padding boundaries: 55 and 56 bytes straddle the length
    // field, 63/64/65 the block edge.
    for (const std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
      std::vector<std::uint8_t> message(len);
      for (std::size_t i = 0; i < len; ++i)
        message[i] = static_cast<std::uint8_t>(i * 37 + 11);
      write(root / "crypto", "len" + std::to_string(len) + ".bin", message);
    }
  }

  std::cout << "corpora written under " << root << "\n";
  return 0;
}
