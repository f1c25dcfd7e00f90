#include "crypto/hmac.h"

#include <cstring>
#include <type_traits>

#include "crypto/constant_time.h"
#include "util/secure_zero.h"

namespace medsen::crypto {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};  // medsen: secret
  if (key.size() > kBlock) {
    auto digest = sha256(key);  // medsen: secret
    std::memcpy(k.data(), digest.data(), digest.size());
    util::secure_wipe(digest);
  } else if (!key.empty()) {
    // An empty span carries a null data() pointer, and memcpy's
    // arguments must never be null even for zero sizes — the empty key
    // (used to sign unknown-device errors) hits that edge.
    std::memcpy(k.data(), key.data(), key.size());
  }

  // The padded-key blocks are trivially invertible back to the key
  // (XOR with a public constant), so they get the same wipe treatment.
  std::array<std::uint8_t, kBlock> pad;  // medsen: secret
  for (std::size_t i = 0; i < kBlock; ++i)
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
  inner_.update(pad);
  for (std::size_t i = 0; i < kBlock; ++i)
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  outer_.update(pad);
  util::secure_wipe(pad);
  util::secure_wipe(k);
}

// Sha256 is trivially copyable: zeroing its bytes is a valid (if final)
// state, and it takes the chaining value and any buffered input with it.
static_assert(std::is_trivially_copyable_v<Sha256>);
HmacSha256::~HmacSha256() {
  util::secure_zero(&inner_, sizeof(inner_));
  util::secure_zero(&outer_, sizeof(outer_));
}

Sha256Digest HmacSha256::finish() {
  outer_.update(inner_.finish());
  return outer_.finish();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) {
  return constant_time_equal(a, b);
}

}  // namespace medsen::crypto
