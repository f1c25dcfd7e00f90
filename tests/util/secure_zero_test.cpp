#include "util/secure_zero.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <new>
#include <numeric>
#include <vector>

#include "util/secret_bytes.h"

namespace medsen::util {
namespace {

TEST(SecureZero, ZeroesExactlyTheRequestedRange) {
  std::array<std::uint8_t, 32> buf{};
  buf.fill(0xAB);
  secure_zero(buf.data() + 8, 16);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 0xAB) << i;
  for (std::size_t i = 8; i < 24; ++i) EXPECT_EQ(buf[i], 0x00) << i;
  for (std::size_t i = 24; i < 32; ++i) EXPECT_EQ(buf[i], 0xAB) << i;
}

TEST(SecureZero, NullAndZeroLengthAreNoOps) {
  secure_zero(nullptr, 0);
  secure_zero(nullptr, 16);  // must not crash
  std::uint8_t byte = 0x5A;
  secure_zero(&byte, 0);
  EXPECT_EQ(byte, 0x5A);
}

TEST(SecureWipe, VectorIsZeroedThenCleared) {
  std::vector<std::uint8_t> v(40, 0xCD);
  const std::uint8_t* backing = v.data();
  const std::size_t n = v.size();
  secure_wipe(v);
  EXPECT_TRUE(v.empty());
  // clear() keeps the allocation, so the backing store is still ours to
  // inspect: every byte the key occupied must be zero.
  ASSERT_GE(v.capacity(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(backing[i], 0x00) << i;
}

TEST(SecureWipe, ArrayIsZeroedInPlace) {
  std::array<std::uint8_t, 16> key{};
  std::iota(key.begin(), key.end(), std::uint8_t{1});
  secure_wipe(key);
  for (const auto b : key) EXPECT_EQ(b, 0x00);
}

// --- SecretBytes -----------------------------------------------------

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(0x40 + (i % 64));
  return v;
}

bool window_contains(std::span<const unsigned char> haystack,
                     std::span<const std::uint8_t> needle) {
  if (needle.empty() || haystack.size() < needle.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

TEST(SecretBytes, HoldsAndReturnsBytes) {
  const auto key = pattern(32);
  const SecretBytes secret(key);
  ASSERT_EQ(secret.size(), 32u);
  EXPECT_TRUE(std::equal(key.begin(), key.end(), secret.data()));
  EXPECT_TRUE(secret == key);
}

TEST(SecretBytes, AdoptWipesTheSourceVector) {
  auto key = pattern(24);
  const auto expected = key;
  const std::uint8_t* source_backing = key.data();
  SecretBytes secret;
  secret.adopt(std::move(key));
  EXPECT_TRUE(secret == expected);
  // The donor vector's buffer must hold no residue of the key.
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(source_backing[i], 0x00) << i;
}

// The flagship pin: destroy a SecretBytes in raw storage we own, then
// inspect that storage byte-for-byte. Keys fit the inline array, so the
// whole object representation is visible after the destructor runs —
// no use-after-free, ASan-clean, and any future "forgot to wipe"
// regression turns the key bytes back up in the window.
TEST(SecretBytes, DestructorZeroizesInlineKeyStorage) {
  alignas(SecretBytes) unsigned char storage[sizeof(SecretBytes)];
  const auto key = pattern(32);

  auto* secret = new (storage) SecretBytes(key);
  ASSERT_TRUE(window_contains({storage, sizeof(storage)}, key))
      << "test invariant: the live key must be visible in the object";
  secret->~SecretBytes();

  EXPECT_FALSE(window_contains({storage, sizeof(storage)}, key))
      << "destructed SecretBytes left key bytes behind";
}

TEST(SecretBytes, MovedFromObjectIsWipedAndEmpty) {
  alignas(SecretBytes) unsigned char storage[sizeof(SecretBytes)];
  const auto key = pattern(48);

  auto* source = new (storage) SecretBytes(key);
  SecretBytes dest(std::move(*source));
  EXPECT_TRUE(dest == key);
  EXPECT_TRUE(source->empty());
  // The moved-from object is still alive; its storage must already be
  // clean — an ownership transfer may not leave a second live copy.
  EXPECT_FALSE(window_contains({storage, sizeof(storage)}, key))
      << "moved-from SecretBytes still holds key bytes";
  source->~SecretBytes();
}

TEST(SecretBytes, MoveAssignWipesBothOldContentsAndSource) {
  alignas(SecretBytes) unsigned char storage[sizeof(SecretBytes)];
  const auto old_key = pattern(16);
  const auto new_key = pattern(32);

  auto* source = new (storage) SecretBytes(new_key);
  SecretBytes dest(old_key);
  dest = std::move(*source);
  EXPECT_TRUE(dest == new_key);
  EXPECT_FALSE(window_contains({storage, sizeof(storage)}, new_key));
  source->~SecretBytes();
}

TEST(SecretBytes, WipeIsIdempotentAndReusable) {
  SecretBytes secret(pattern(16));
  secret.wipe();
  EXPECT_TRUE(secret.empty());
  secret.wipe();
  secret.assign(pattern(8));
  EXPECT_EQ(secret.size(), 8u);
}

// wipe() zeroes only the live bytes, which is enough because inline
// bytes past size() are always zero. Pin that invariant through every
// way an object's contents change.
TEST(SecretBytes, InlineBytesPastSizeStayZero) {
  const auto tail_is_zero = [](const SecretBytes& secret) {
    // Not spilled: data() is the whole inline array.
    return std::all_of(secret.data() + secret.size(),
                       secret.data() + SecretBytes::kInlineCapacity,
                       [](std::uint8_t b) { return b == 0; });
  };
  SecretBytes secret(pattern(32));
  secret.assign(pattern(8));  // assign shorter
  EXPECT_TRUE(tail_is_zero(secret));
  SecretBytes copy(secret);  // copy
  EXPECT_TRUE(tail_is_zero(copy));
  SecretBytes moved(std::move(copy));  // move
  EXPECT_TRUE(tail_is_zero(moved));
  EXPECT_TRUE(tail_is_zero(copy));  // NOLINT(bugprone-use-after-move): pinned
  SecretBytes target(pattern(48));
  target = std::move(moved);  // move-assign over a longer key
  EXPECT_TRUE(target == pattern(8));
  EXPECT_TRUE(tail_is_zero(target));
  EXPECT_TRUE(tail_is_zero(moved));  // NOLINT(bugprone-use-after-move)
  SecretBytes shrunk(pattern(200));  // spilled, then back inline
  shrunk.assign(pattern(4));
  EXPECT_TRUE(tail_is_zero(shrunk));
}

TEST(SecretBytes, SpillPathHoldsOversizedKeys) {
  // Legacy free-form provisioning keys may exceed the inline capacity.
  const auto big = pattern(200);
  SecretBytes secret(big);
  ASSERT_EQ(secret.size(), 200u);
  EXPECT_TRUE(std::equal(big.begin(), big.end(), secret.data()));
  SecretBytes moved(std::move(secret));
  EXPECT_TRUE(moved == big);
  EXPECT_TRUE(secret.empty());  // NOLINT(bugprone-use-after-move): pinned
  secret.assign(pattern(4));    // reusable after a move-out
  EXPECT_EQ(secret.size(), 4u);
}

TEST(SecretBytes, SelfAssignAndAliasedAssignAreSafe) {
  const auto key = pattern(32);
  SecretBytes secret(key);
  secret.assign(secret.span());  // aliasing assign must not corrupt
  EXPECT_TRUE(secret == key);
}

TEST(SecretBytes, ConstantTimeEqualitySemantics) {
  const SecretBytes a(pattern(16));
  const SecretBytes b(pattern(16));
  SecretBytes c(pattern(16));
  EXPECT_TRUE(a == b);
  std::vector<std::uint8_t> tweaked = pattern(16);
  tweaked[7] ^= 0x01;
  c.assign(tweaked);
  EXPECT_FALSE(a == c);
  const SecretBytes shorter(pattern(8));
  EXPECT_FALSE(a == shorter);
  EXPECT_TRUE(SecretBytes() == SecretBytes());
}

}  // namespace
}  // namespace medsen::util
