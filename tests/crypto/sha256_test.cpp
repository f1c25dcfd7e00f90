#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace medsen::crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  // FIPS 180-4 example: "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
  EXPECT_EQ(to_hex(sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, EmptyUpdateMidStreamIsANoOp) {
  // A default-constructed vector's span has a null data pointer; feeding
  // it while bytes are buffered must neither change the digest nor hand
  // memcpy a null source (UBSan flags that).
  const std::vector<std::uint8_t> abc = {'a', 'b', 'c'};
  Sha256 h;
  h.update(std::span<const std::uint8_t>(abc).first(1));
  h.update(std::vector<std::uint8_t>{});
  h.update(std::span<const std::uint8_t>(abc).subspan(1));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i)
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()));
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) {
    const auto byte = static_cast<std::uint8_t>(c);
    h.update(std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(to_hex(h.finish()), to_hex(sha256(msg)));
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must not collide
  // or crash.
  std::vector<std::string> hashes;
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u}) {
    hashes.push_back(to_hex(sha256(std::string(len, 'x'))));
  }
  for (std::size_t i = 0; i < hashes.size(); ++i)
    for (std::size_t j = i + 1; j < hashes.size(); ++j)
      EXPECT_NE(hashes[i], hashes[j]);
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("abc"), 3));
  (void)h.finish();
  h.reset();
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("abc"), 3));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

}  // namespace
}  // namespace medsen::crypto
