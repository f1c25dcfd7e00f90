#pragma once
// HMAC-SHA256 (RFC 2104). The cyto-coded identifier doubles as an integrity
// check in the paper (Section V); the protocol layer additionally MACs
// frames so tampering by the untrusted phone/cloud is detectable.

#include <cstdint>
#include <span>

#include "crypto/sha256.h"

namespace medsen::crypto {

/// Streaming HMAC-SHA256: key -> update()... -> finish(). The message
/// may arrive in any number of pieces (a header, then a payload) and is
/// hashed in one pass, never copied into a contiguous buffer. The
/// constructor absorbs the ipad and opad blocks into two SHA-256
/// midstates and wipes the pads; the midstates are key-equivalent, so
/// the destructor wipes them. Not copyable: a copy would be one more
/// key-equivalent object to wipe.
class HmacSha256 {
 public:
  /// Any key length; keys over 64 bytes are hashed first (RFC 2104).
  explicit HmacSha256(std::span<const std::uint8_t> key);
  ~HmacSha256();
  HmacSha256(const HmacSha256&) = delete;
  HmacSha256& operator=(const HmacSha256&) = delete;

  void update(std::span<const std::uint8_t> data) { inner_.update(data); }
  /// The tag over everything passed to update(). Call once.
  Sha256Digest finish();

 private:
  Sha256 inner_;  // medsen: secret
  Sha256 outer_;  // medsen: secret
};

/// HMAC-SHA256 over `data` with `key` (any length).
Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data);

/// Constant-time digest comparison (delegates to
/// crypto::constant_time_equal, the tree-wide verifier primitive).
bool digest_equal(const Sha256Digest& a, const Sha256Digest& b);

}  // namespace medsen::crypto
