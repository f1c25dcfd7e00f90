#pragma once
// AES-128 block cipher (FIPS 197) with CTR mode. AES keys the session
// plane (the AES-CMAC KDF, device-key diversification and handshake
// proofs in crypto/cmac.h) and seals the journal and snapshots at rest
// (CTR, cloud/durability.cpp). Both modes only ever run the forward
// cipher, so there is no decryption. The block function runs on AES-NI
// when the CPU reports it (crypto/cpu_features.h), with the portable
// S-box code as the byte-identical reference.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace medsen::crypto {

/// AES-128 with a precomputed key schedule.
class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;

  explicit Aes128(std::span<const std::uint8_t, kKeySize> key);
  /// The expanded schedule is key material: wipe it on the way out.
  ~Aes128();
  Aes128(const Aes128&) = default;
  Aes128& operator=(const Aes128&) = default;

  /// Encrypt one 16-byte block in place.
  void encrypt_block(std::span<std::uint8_t, kBlockSize> block) const;

 private:
  std::array<std::uint8_t, 176> round_keys_{};  // 11 round keys  // medsen: secret
};

/// AES-128-CTR stream transform (encrypt == decrypt). The 16-byte counter
/// block is nonce (first 8 bytes) || big-endian 64-bit block counter.
class Aes128Ctr {
 public:
  Aes128Ctr(std::span<const std::uint8_t, Aes128::kKeySize> key,
            std::uint64_t nonce);
  /// Unconsumed keystream is key-equivalent: wipe it on the way out.
  ~Aes128Ctr();
  Aes128Ctr(const Aes128Ctr&) = default;
  Aes128Ctr& operator=(const Aes128Ctr&) = default;

  /// XOR the keystream into data in place.
  void apply(std::span<std::uint8_t> data);

 private:
  Aes128 cipher_;
  std::uint64_t nonce_;
  std::uint64_t counter_ = 0;
  std::array<std::uint8_t, Aes128::kBlockSize> buf_{};  // medsen: secret
  std::size_t pos_ = Aes128::kBlockSize;

  void refill();
};

}  // namespace medsen::crypto
