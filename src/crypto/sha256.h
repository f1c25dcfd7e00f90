#pragma once
// SHA-256 (FIPS 180-4). Used to hash RNG seeds, derive session keys, and
// (with HMAC) integrity-protect MedSen protocol frames.

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace medsen::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  /// Finalizes and returns the digest; the object must be reset() before
  /// further use.
  Sha256Digest finish();

 private:
  /// Runs the block function over `count` 64-byte blocks: the SHA-NI
  /// kernel when the CPU has it, the portable one otherwise
  /// (crypto/cpu_features.h).
  void compress(const std::uint8_t* blocks, std::size_t count);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Sha256Digest sha256(std::span<const std::uint8_t> data);
Sha256Digest sha256(const std::string& data);

/// Lowercase hex rendering of a digest.
std::string to_hex(const Sha256Digest& digest);

}  // namespace medsen::crypto
