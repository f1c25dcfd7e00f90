#include "util/secret_bytes.h"

#include <algorithm>

#include "util/secure_zero.h"

namespace medsen::util {

SecretBytes::SecretBytes(std::span<const std::uint8_t> bytes) {
  assign(bytes);
}

SecretBytes::SecretBytes(std::vector<std::uint8_t>&& bytes) {
  adopt(std::move(bytes));
}

SecretBytes::SecretBytes(const SecretBytes& other) { assign(other.span()); }

SecretBytes& SecretBytes::operator=(const SecretBytes& other) {
  if (this != &other) assign(other.span());
  return *this;
}

SecretBytes::SecretBytes(SecretBytes&& other) noexcept { take_from(other); }

SecretBytes& SecretBytes::operator=(SecretBytes&& other) noexcept {
  if (this != &other) {
    wipe();
    take_from(other);
  }
  return *this;
}

SecretBytes::~SecretBytes() { wipe(); }

void SecretBytes::take_from(SecretBytes& other) noexcept {
  if (other.spill_) {
    // Transfer the heap buffer wholesale; nothing is copied, so the
    // source holds no residue beyond its (already zero) inline array.
    spill_ = std::move(other.spill_);
    spill_capacity_ = other.spill_capacity_;
    size_ = other.size_;
    other.spill_capacity_ = 0;
    other.size_ = 0;
    return;
  }
  size_ = other.size_;
  std::copy_n(other.inline_.data(), other.size_, inline_.data());
  other.wipe();
}

void SecretBytes::assign(std::span<const std::uint8_t> bytes) {
  if (bytes.size() <= kInlineCapacity) {
    // Copy before wiping: `bytes` may alias our own storage.
    std::array<std::uint8_t, kInlineCapacity> staged{};
    std::copy(bytes.begin(), bytes.end(), staged.begin());
    wipe();
    inline_ = staged;
    size_ = bytes.size();
    secure_wipe(staged);
    return;
  }
  auto staged = std::make_unique<std::uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), staged.get());
  wipe();
  spill_ = std::move(staged);
  spill_capacity_ = bytes.size();
  size_ = bytes.size();
}

void SecretBytes::adopt(std::vector<std::uint8_t>&& bytes) {
  assign(bytes);
  secure_wipe(bytes);
}

void SecretBytes::wipe() noexcept {
  // Inline bytes past size_ are always zero (assign stages into a zeroed
  // array, take_from copies size_ bytes into a fresh or wiped target),
  // so only the live ones need the barrier-pinned store, and an empty
  // object needs none.
  if (spill_) {
    secure_zero(spill_.get(), spill_capacity_);
    spill_.reset();
  } else if (size_ != 0) {
    secure_zero(inline_.data(), size_);
  }
  spill_capacity_ = 0;
  size_ = 0;
}

bool constant_time_equal_bytes(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

}  // namespace medsen::util
