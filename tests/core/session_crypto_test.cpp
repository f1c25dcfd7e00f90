#include "core/session_crypto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/cmac.h"
#include "net/messages.h"

namespace medsen::core {
namespace {

std::vector<std::uint8_t> test_device_key() {
  return std::vector<std::uint8_t>(16, 0x42);
}

// Build the server's honest AuthResponse to a given challenge envelope.
net::Envelope honest_response(const net::Envelope& challenge,
                              std::span<const std::uint8_t> device_key,
                              std::span<const std::uint8_t> rnd_b) {
  const auto chal = net::AuthChallengePayload::deserialize(challenge.payload);
  net::AuthResponsePayload response;
  std::copy(rnd_b.begin(), rnd_b.end(), response.challenge.begin());
  const auto proof = crypto::session_proof(device_key, chal.challenge, rnd_b);
  std::copy(proof.begin(), proof.end(), response.proof.begin());
  return net::make_envelope(net::MessageType::kAuthResponse,
                            challenge.session_id, challenge.device_id,
                            response.serialize(), device_key, 0);
}

TEST(SessionCrypto, ChallengeRidesCounterZeroWithLongTermKey) {
  SessionCrypto crypto(7, test_device_key(), 3, 1234);
  const auto envelope = crypto.make_challenge(100);

  EXPECT_EQ(envelope.type, net::MessageType::kAuthChallenge);
  EXPECT_EQ(envelope.session_id, 100u);
  EXPECT_EQ(envelope.device_id, 7u);
  EXPECT_EQ(envelope.counter, 0u);
  EXPECT_TRUE(net::verify_envelope(envelope, test_device_key()));

  const auto payload = net::AuthChallengePayload::deserialize(envelope.payload);
  EXPECT_EQ(payload.key_epoch, 3u);
}

TEST(SessionCrypto, SameSeedSameChallenge) {
  SessionCrypto a(7, test_device_key(), 0, 999);
  SessionCrypto b(7, test_device_key(), 0, 999);
  EXPECT_EQ(a.make_challenge(1).serialize(), b.make_challenge(1).serialize());

  SessionCrypto c(7, test_device_key(), 0, 1000);
  EXPECT_NE(a.make_challenge(2).payload, c.make_challenge(2).payload);
}

TEST(SessionCrypto, CompletesAgainstHonestServer) {
  const auto key = test_device_key();
  SessionCrypto crypto(7, key, 0, 1234);
  const auto challenge = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);

  EXPECT_FALSE(crypto.active());
  ASSERT_TRUE(crypto.complete(honest_response(challenge, key, rnd_b)));
  EXPECT_TRUE(crypto.active());
  EXPECT_EQ(crypto.session_id(), 100u);

  // Both sides derive the same session MAC key.
  const auto chal = net::AuthChallengePayload::deserialize(challenge.payload);
  EXPECT_EQ(crypto.session_mac_key(),
            crypto::derive_session_mac_key(key, chal.challenge, rnd_b));

  // Counters count from 1 after the handshake.
  EXPECT_EQ(crypto.last_counter(), 0u);
  EXPECT_EQ(crypto.next_counter(), 1u);
  EXPECT_EQ(crypto.next_counter(), 2u);
  EXPECT_EQ(crypto.last_counter(), 2u);
}

TEST(SessionCrypto, RejectsForgedProof) {
  const auto key = test_device_key();
  SessionCrypto crypto(7, key, 0, 1234);
  const auto challenge = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);

  auto forged = honest_response(challenge, key, rnd_b);
  auto payload = net::AuthResponsePayload::deserialize(forged.payload);
  payload.proof[0] ^= 0x01;
  forged = net::make_envelope(net::MessageType::kAuthResponse,
                              forged.session_id, forged.device_id,
                              payload.serialize(), key, 0);
  EXPECT_FALSE(crypto.complete(forged));
  EXPECT_FALSE(crypto.active());
}

TEST(SessionCrypto, RejectsBadEnvelopeMac) {
  const auto key = test_device_key();
  SessionCrypto crypto(7, key, 0, 1234);
  const auto challenge = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);

  auto tampered = honest_response(challenge, key, rnd_b);
  tampered.mac[0] ^= 0x01;
  EXPECT_FALSE(crypto.complete(tampered));
  EXPECT_FALSE(crypto.active());
}

TEST(SessionCrypto, RejectsMismatchedSessionOrType) {
  const auto key = test_device_key();
  SessionCrypto crypto(7, key, 0, 1234);
  const auto challenge = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);
  const auto good = honest_response(challenge, key, rnd_b);

  // Wrong session id (a response replayed from another handshake).
  auto wrong_session = net::make_envelope(net::MessageType::kAuthResponse, 999,
                                          good.device_id, good.payload, key, 0);
  EXPECT_FALSE(crypto.complete(wrong_session));

  // Wrong type entirely.
  auto wrong_type = net::make_envelope(net::MessageType::kAuthChallenge, 100,
                                       good.device_id, good.payload, key, 0);
  EXPECT_FALSE(crypto.complete(wrong_type));
  EXPECT_FALSE(crypto.active());
}

TEST(SessionCrypto, ResponseWithoutPendingChallengeFails) {
  const auto key = test_device_key();
  SessionCrypto a(7, key, 0, 1234);
  const auto challenge = a.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);
  const auto response = honest_response(challenge, key, rnd_b);

  ASSERT_TRUE(a.complete(response));
  // Completing twice must fail: RndA was consumed.
  EXPECT_FALSE(a.complete(response));
}

TEST(SessionCrypto, InvalidateDropsTheSession) {
  const auto key = test_device_key();
  SessionCrypto crypto(7, key, 0, 1234);
  const auto challenge = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);
  ASSERT_TRUE(crypto.complete(honest_response(challenge, key, rnd_b)));
  (void)crypto.next_counter();

  crypto.invalidate();
  EXPECT_FALSE(crypto.active());
  EXPECT_TRUE(crypto.session_mac_key().empty());

  // A fresh handshake uses a fresh RndA and restarts counters at 1.
  const auto second = crypto.make_challenge(101);
  EXPECT_NE(second.payload, challenge.payload);
  ASSERT_TRUE(crypto.complete(honest_response(second, key, rnd_b)));
  EXPECT_EQ(crypto.next_counter(), 1u);
}

TEST(SessionCrypto, NewChallengeInvalidatesActiveSession) {
  const auto key = test_device_key();
  SessionCrypto crypto(7, key, 0, 1234);
  const auto first = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);
  ASSERT_TRUE(crypto.complete(honest_response(first, key, rnd_b)));
  ASSERT_TRUE(crypto.active());

  // Opening a new handshake mid-session drops the old keys immediately.
  crypto.make_challenge(101);
  EXPECT_FALSE(crypto.active());
}

// Legacy free-form (non-16-byte) provisioned keys must still handshake.
TEST(SessionCrypto, LegacyFreeFormKeyHandshakes) {
  const std::vector<std::uint8_t> legacy = {'l', 'e', 'g', 'a', 'c', 'y'};
  SessionCrypto crypto(7, legacy, 0, 1234);
  const auto challenge = crypto.make_challenge(100);
  const std::vector<std::uint8_t> rnd_b(16, 0xb7);
  ASSERT_TRUE(crypto.complete(honest_response(challenge, legacy, rnd_b)));
  EXPECT_EQ(crypto.session_mac_key().size(), 32u);
}

}  // namespace
}  // namespace medsen::core
