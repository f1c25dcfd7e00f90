#include "core/escrow.h"

#include <stdexcept>

#include "crypto/chacha20.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/serialize.h"

namespace medsen::core {

namespace {

std::array<std::uint8_t, 32> derive(std::span<const std::uint8_t> secret,
                                    const char* label) {
  const auto okm = crypto::hkdf_label(secret, label, 32);
  std::array<std::uint8_t, 32> key{};
  std::copy(okm.begin(), okm.end(), key.begin());
  return key;
}

/// HMAC over nonce || ciphertext, streamed in one pass.
crypto::Sha256Digest package_mac(std::span<const std::uint8_t> mac_key,
                                 const EscrowPackage& package) {
  crypto::HmacSha256 mac(mac_key);
  mac.update(package.nonce);
  mac.update(package.ciphertext);
  return mac.finish();
}

}  // namespace

std::vector<std::uint8_t> EscrowPackage::serialize() const {
  util::ByteWriter out;
  out.bytes(nonce);
  out.blob(ciphertext);
  out.bytes(mac);
  return out.take();
}

EscrowPackage EscrowPackage::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  EscrowPackage package;
  for (auto& b : package.nonce) b = in.u8();
  package.ciphertext = in.blob();
  for (auto& b : package.mac) b = in.u8();
  in.expect_done("EscrowPackage");
  return package;
}

EscrowPackage escrow_key_schedule(const KeySchedule& schedule,
                                  std::span<const std::uint8_t> shared_secret,
                                  std::uint64_t entropy) {
  EscrowPackage package;
  crypto::ChaChaRng nonce_rng(entropy);
  nonce_rng.fill(package.nonce);

  const auto enc_key = derive(shared_secret, "medsen-escrow-enc");
  package.ciphertext = schedule.serialize();
  crypto::ChaCha20 cipher(enc_key,
                          std::span<const std::uint8_t, 12>(package.nonce),
                          1);
  cipher.apply(package.ciphertext);

  const auto mac_key = derive(shared_secret, "medsen-escrow-mac");
  package.mac = package_mac(mac_key, package);
  return package;
}

KeySchedule recover_key_schedule(
    const EscrowPackage& package,
    std::span<const std::uint8_t> shared_secret) {
  const auto mac_key = derive(shared_secret, "medsen-escrow-mac");
  const auto expected = package_mac(mac_key, package);
  if (!crypto::digest_equal(expected, package.mac))
    throw std::runtime_error(
        "recover_key_schedule: MAC verification failed");

  const auto enc_key = derive(shared_secret, "medsen-escrow-enc");
  std::vector<std::uint8_t> plaintext = package.ciphertext;
  crypto::ChaCha20 cipher(enc_key,
                          std::span<const std::uint8_t, 12>(package.nonce),
                          1);
  cipher.apply(plaintext);
  return KeySchedule::deserialize(plaintext);
}

DecryptionResult practitioner_decrypt(
    const EscrowPackage& package, std::span<const std::uint8_t> shared_secret,
    const PeakReport& report, const sim::ElectrodeArrayDesign& design,
    double duration_s) {
  const KeySchedule schedule =
      recover_key_schedule(package, shared_secret);
  return decrypt_report(report, schedule, design, duration_s);
}

}  // namespace medsen::core
