// Pinned envelope MACs. The MAC covers a 21-byte header (type, session,
// device, counter) followed by the payload; the header+payload totals
// below straddle SHA-256's padding boundaries (55/56 bytes in the last
// block, 64 and 119/120 across two), and the two large payloads are the
// fleet upload's and the clinical session's sizes. Every value is the
// portable reference's output, so a change to how the MAC is computed
// (streaming, a hardware SHA-256) that moves one byte fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/messages.h"

namespace medsen::net {
namespace {

constexpr std::size_t kHeaderBytes = 21;

std::vector<std::uint8_t> session_key() {
  std::vector<std::uint8_t> key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(0x40 + 3 * i);
  return key;
}

std::string mac_hex(std::size_t payload_bytes) {
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + (i >> 8));
  const auto envelope =
      make_envelope(MessageType::kSignalUpload, 0x1122334455667788ULL,
                    0x99aabbccddeeff00ULL, std::move(payload), session_key(),
                    /*counter=*/0x01020304);
  return crypto::to_hex(envelope.mac);
}

TEST(EnvelopeMacPinned, EmptyPayload) {
  EXPECT_EQ(mac_hex(0),
            "de14b61d6eef17589259e23c2d058332c4d2c2389c42524ded89abda4d000f95");
}

TEST(EnvelopeMacPinned, Total55Bytes) {
  EXPECT_EQ(mac_hex(55 - kHeaderBytes),
            "3e510e5abc1bd8338c1c8406a891466c83677855c03c4a76136c5864f33a1930");
}

TEST(EnvelopeMacPinned, Total56Bytes) {
  EXPECT_EQ(mac_hex(56 - kHeaderBytes),
            "aecaf67f7c141888e4250528b623fc8228419fcb9100b8f54772596c8e55601b");
}

TEST(EnvelopeMacPinned, Total64Bytes) {
  EXPECT_EQ(mac_hex(64 - kHeaderBytes),
            "d5bc8561555abf22c4cbe28900fbf25c4cf13f3392a744d91c1738fb151b0f9b");
}

TEST(EnvelopeMacPinned, Total119Bytes) {
  EXPECT_EQ(mac_hex(119 - kHeaderBytes),
            "c7cc98af3c5a3f1b2f5af9e3e1ba0c8d92b92ccada3d292091ce6b4af8ded8a7");
}

TEST(EnvelopeMacPinned, Total120Bytes) {
  EXPECT_EQ(mac_hex(120 - kHeaderBytes),
            "0c4b67a389140692e2414f35498264e6a52347cf72abd7eac6c27e82ebc01449");
}

TEST(EnvelopeMacPinned, FleetUpload7300Bytes) {
  EXPECT_EQ(mac_hex(7300),
            "26f27bd7346b90700e3aeda801da0b6f07713c22d72354cde4f127fb55879ab6");
}

TEST(EnvelopeMacPinned, SessionUpload110000Bytes) {
  EXPECT_EQ(mac_hex(110000),
            "7f4e3cc9090bd10c3b616ebe3409780709e22939ead4201ca2b34fc7181757c5");
}

// The cloud signs unknown-device errors with an empty key.
TEST(EnvelopeMacPinned, EmptyKey) {
  const auto envelope =
      make_envelope(MessageType::kError, 5, 6, {1, 2, 3}, {});
  EXPECT_EQ(crypto::to_hex(envelope.mac),
            "31428efa8a8ea5089f76114c9ee623933ad7a01c14d60b22667e3e4dd0d44b79");
}

}  // namespace
}  // namespace medsen::net
