#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace medsen::crypto {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto mac = hmac_sha256(key, as_bytes("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  const auto mac =
      hmac_sha256(as_bytes("Jefe"), as_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
TEST(Hmac, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4: 25-byte counting key, 50x 0xcd data.
TEST(Hmac, Rfc4231Case4) {
  std::vector<std::uint8_t> key(25);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(i + 1);
  const std::vector<std::uint8_t> data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 6: 131-byte key (longer than block -> hashed).
TEST(Hmac, Rfc4231Case6LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, as_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 7: 131-byte key and a message longer than a block.
TEST(Hmac, Rfc4231Case7LongKeyLongData) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, as_bytes("This is a test using a larger than block-size key and a "
                    "larger than block-size data. The key needs to be hashed "
                    "before being used by the HMAC algorithm."));
  EXPECT_EQ(to_hex(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// Empty key, empty data — the well-known HMAC-SHA256 vector. The cloud
// signs unknown-device error envelopes with an empty key, and an empty
// std::span has a null data() pointer, which once hit memcpy UB inside
// hmac_sha256; this pins the output so the guard can't regress.
TEST(Hmac, EmptyKeyEmptyDataPinned) {
  const auto mac = hmac_sha256({}, {});
  EXPECT_EQ(to_hex(mac),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(Hmac, EmptyKeyMatchesZeroLengthKey) {
  const std::vector<std::uint8_t> no_bytes;
  const auto from_empty_span = hmac_sha256({}, as_bytes("payload"));
  const auto from_empty_vec = hmac_sha256(no_bytes, as_bytes("payload"));
  EXPECT_TRUE(digest_equal(from_empty_span, from_empty_vec));
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const std::vector<std::uint8_t> k1(16, 1), k2(16, 2);
  const auto m1 = hmac_sha256(k1, as_bytes("payload"));
  const auto m2 = hmac_sha256(k2, as_bytes("payload"));
  EXPECT_FALSE(digest_equal(m1, m2));
}

TEST(Hmac, DigestEqualConstantTimeSemantics) {
  Sha256Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

}  // namespace
}  // namespace medsen::crypto
