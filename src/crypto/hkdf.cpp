#include "crypto/hkdf.h"

#include <array>
#include <stdexcept>

#include "crypto/hmac.h"
#include "util/secure_zero.h"

namespace medsen::crypto {

Sha256Digest hkdf_extract(std::span<const std::uint8_t> salt,
                          std::span<const std::uint8_t> ikm) {
  if (salt.empty()) {
    const std::array<std::uint8_t, 32> zero_salt{};
    return hmac_sha256(zero_salt, ikm);
  }
  return hmac_sha256(salt, ikm);
}

std::vector<std::uint8_t> hkdf_expand(const Sha256Digest& prk,
                                      std::span<const std::uint8_t> info,
                                      std::size_t length) {
  if (length == 0 || length > 255 * 32)
    throw std::invalid_argument("hkdf_expand: length out of range");
  std::vector<std::uint8_t> okm;
  okm.reserve(length);
  // T(i) = HMAC(PRK, T(i-1) || info || i), streamed; T(0) is empty.
  Sha256Digest block{};  // medsen: secret
  std::size_t block_len = 0;
  for (std::uint8_t counter = 1; okm.size() < length; ++counter) {
    HmacSha256 mac(prk);
    mac.update(std::span<const std::uint8_t>(block.data(), block_len));
    mac.update(info);
    mac.update(std::span<const std::uint8_t>(&counter, 1));
    block = mac.finish();
    block_len = block.size();
    const std::size_t take = std::min(block.size(), length - okm.size());
    okm.insert(okm.end(), block.begin(),
               block.begin() + static_cast<long>(take));
  }
  util::secure_wipe(block);
  return okm;
}

std::vector<std::uint8_t> hkdf(std::span<const std::uint8_t> salt,
                               std::span<const std::uint8_t> ikm,
                               std::span<const std::uint8_t> info,
                               std::size_t length) {
  auto prk = hkdf_extract(salt, ikm);  // medsen: secret
  auto okm = hkdf_expand(prk, info, length);
  util::secure_wipe(prk);
  return okm;
}

std::vector<std::uint8_t> hkdf_label(std::span<const std::uint8_t> ikm,
                                     const std::string& label,
                                     std::size_t length) {
  const std::span<const std::uint8_t> info(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size());
  return hkdf({}, ikm, info, length);
}

}  // namespace medsen::crypto
