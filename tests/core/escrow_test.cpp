#include "core/escrow.h"

#include <gtest/gtest.h>

#include "cloud/analysis_service.h"
#include "core/encryptor.h"
#include "crypto/sha256.h"

namespace medsen::core {
namespace {

std::vector<std::uint8_t> secret() { return {10, 20, 30, 40}; }

KeySchedule sample_schedule() {
  KeyParams params;
  params.num_electrodes = 9;
  params.period_s = 2.0;
  crypto::ChaChaRng rng(31);
  return KeySchedule::generate(params, 12.0, rng);
}

TEST(Escrow, RoundTripRecoversSchedule) {
  const auto schedule = sample_schedule();
  const auto package = escrow_key_schedule(schedule, secret(), 1);
  const auto recovered = recover_key_schedule(package, secret());
  EXPECT_EQ(recovered.serialize(), schedule.serialize());
}

TEST(Escrow, CiphertextDiffersFromPlaintext) {
  const auto schedule = sample_schedule();
  const auto package = escrow_key_schedule(schedule, secret(), 2);
  EXPECT_NE(package.ciphertext, schedule.serialize());
}

TEST(Escrow, WrongSecretRejected) {
  const auto package = escrow_key_schedule(sample_schedule(), secret(), 3);
  const std::vector<std::uint8_t> wrong = {9, 9, 9};
  EXPECT_THROW((void)recover_key_schedule(package, wrong),
               std::runtime_error);
}

TEST(Escrow, TamperedCiphertextRejected) {
  auto package = escrow_key_schedule(sample_schedule(), secret(), 4);
  package.ciphertext[package.ciphertext.size() / 2] ^= 0x01;
  EXPECT_THROW((void)recover_key_schedule(package, secret()),
               std::runtime_error);
}

TEST(Escrow, TamperedNonceRejected) {
  auto package = escrow_key_schedule(sample_schedule(), secret(), 5);
  package.nonce[0] ^= 0x01;
  EXPECT_THROW((void)recover_key_schedule(package, secret()),
               std::runtime_error);
}

TEST(Escrow, DistinctEntropyDistinctPackages) {
  const auto schedule = sample_schedule();
  const auto a = escrow_key_schedule(schedule, secret(), 10);
  const auto b = escrow_key_schedule(schedule, secret(), 11);
  EXPECT_NE(a.nonce, b.nonce);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST(Escrow, SerializationRoundTrip) {
  const auto package = escrow_key_schedule(sample_schedule(), secret(), 6);
  const auto restored = EscrowPackage::deserialize(package.serialize());
  EXPECT_EQ(restored.nonce, package.nonce);
  EXPECT_EQ(restored.ciphertext, package.ciphertext);
  EXPECT_EQ(restored.mac, package.mac);
  EXPECT_NO_THROW((void)recover_key_schedule(restored, secret()));
}

// Both escrow keys come from HKDF-SHA256 and the MAC covers
// nonce || ciphertext; the values are the portable reference's output,
// so a change to how HKDF or the MAC is computed that moves a byte
// fails here.
TEST(Escrow, PackageBytesPinned) {
  const auto package = escrow_key_schedule(sample_schedule(), secret(), 7);
  EXPECT_EQ(crypto::to_hex(crypto::sha256(package.ciphertext)),
            "1ad9a231a2db6130222d1eaaef3bb658ce167d0518d7cdc0d3f6a47a970c00d2");
  EXPECT_EQ(crypto::to_hex(package.mac),
            "7cb9ed9b4f1b2b1a79a58fb571fb80b5433f34e0c2e55c0e089b077ce0d20fac");
}

TEST(Escrow, TrailingBytesRejected) {
  const auto package = escrow_key_schedule(sample_schedule(), secret(), 6);
  auto bytes = package.serialize();
  bytes.push_back(0x01);
  EXPECT_THROW(EscrowPackage::deserialize(bytes), std::runtime_error);
  bytes.pop_back();
  EXPECT_NO_THROW(EscrowPackage::deserialize(bytes));
}

TEST(Escrow, TruncatedDeserializationThrows) {
  const auto package = escrow_key_schedule(sample_schedule(), secret(), 6);
  const auto bytes = package.serialize();
  const std::span<const std::uint8_t> cut(bytes.data(), bytes.size() - 1);
  EXPECT_THROW(EscrowPackage::deserialize(cut), std::out_of_range);
}

TEST(Escrow, PractitionerDecodesStoredReport) {
  // Full practitioner flow: the controller escrows the session key; the
  // practitioner later unwraps it and decodes the cloud's stored report.
  const auto design = sim::standard_design(9);
  sim::ChannelConfig channel;
  channel.loss.enabled = false;
  sim::AcquisitionConfig acquisition;
  acquisition.carriers_hz = {5.0e5};
  acquisition.noise_sigma = 5e-5;
  acquisition.drift.slow_amplitude = 0.002;
  acquisition.drift.random_walk_sigma = 1e-6;

  KeyParams params;
  params.num_electrodes = 9;
  params.period_s = 4.0;
  params.gain_min = 0.8;
  params.gain_max = 1.6;
  crypto::ChaChaRng rng(77);
  const double duration = 40.0;
  const auto schedule = KeySchedule::generate(params, duration, rng);

  SensorEncryptor encryptor(design, channel, acquisition);
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBead780, 120.0}};
  const auto enc = encryptor.acquire(sample, schedule, duration, 88);
  cloud::AnalysisService service;
  const auto report = service.analyze(enc.signals);

  const auto package = escrow_key_schedule(schedule, secret(), 99);
  const auto decoded =
      practitioner_decrypt(package, secret(), report, design, duration);
  const double truth = static_cast<double>(enc.truth.total_particles());
  EXPECT_NEAR(decoded.estimated_count, truth, std::max(2.0, truth * 0.15));
}

}  // namespace
}  // namespace medsen::core
