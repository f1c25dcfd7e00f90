#include "compress/bitio.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/chacha20.h"

namespace medsen::compress {
namespace {

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const std::vector<int> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  for (int b : bits) w.put(static_cast<std::uint32_t>(b), 1);
  const auto buf = w.finish();
  BitReader r(buf);
  for (int b : bits) EXPECT_EQ(r.bit(), static_cast<std::uint32_t>(b));
}

TEST(BitIo, LsbFirstWithinByte) {
  BitWriter w;
  w.put(1, 1);  // bit 0 of first byte
  w.put(0, 1);
  w.put(1, 1);  // bit 2
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b00000101);
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.put(0x5, 3);
  w.put(0xABC, 12);
  w.put(0xDEADBEEF, 32);
  w.put(0x1, 1);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.get(3), 0x5u);
  EXPECT_EQ(r.get(12), 0xABCu);
  EXPECT_EQ(r.get(32), 0xDEADBEEFu);
  EXPECT_EQ(r.get(1), 0x1u);
}

TEST(BitIo, MasksExtraHighBits) {
  BitWriter w;
  w.put(0xFF, 4);  // only low 4 bits kept
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.get(4), 0xFu);
  EXPECT_EQ(r.get(4), 0u);  // padding
}

TEST(BitIo, CountTooLargeThrows) {
  BitWriter w;
  EXPECT_THROW(w.put(0, 33), std::invalid_argument);
  const std::vector<std::uint8_t> buf = {0};
  BitReader r(buf);
  EXPECT_THROW(r.get(33), std::invalid_argument);
}

TEST(BitIo, ReadPastEndThrows) {
  const std::vector<std::uint8_t> buf = {0xFF};
  BitReader r(buf);
  EXPECT_EQ(r.get(8), 0xFFu);
  EXPECT_THROW(r.get(1), std::out_of_range);
}

// `count` bits of `buf` from bit `start` on, read one bit at a time in
// LSB-first stream order.
std::uint32_t stream_bits(const std::vector<std::uint8_t>& buf,
                          std::size_t start, unsigned count) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < count; ++i)
    out |= ((buf[(start + i) / 8] >> ((start + i) % 8)) & 1u) << i;
  return out;
}

TEST(BitIo, ReadsStraddlingRefillsMatchBitByBitExtraction) {
  // Every field width at every start bit across several 64-bit refills.
  crypto::ChaChaRng rng(64);
  std::vector<std::uint8_t> buf(40);
  rng.fill(buf);
  for (std::size_t start = 0; start < 200; ++start) {
    for (unsigned count = 1; count <= 32; ++count) {
      BitReader r(buf);
      for (std::size_t skipped = 0; skipped < start;) {
        const auto step = static_cast<unsigned>(std::min<std::size_t>(
            start - skipped, 1 + (skipped % 32)));
        r.get(step);
        skipped += step;
      }
      ASSERT_EQ(r.get(count), stream_bits(buf, start, count))
          << "start " << start << " count " << count;
      EXPECT_EQ(r.bits_consumed(), start + count);
    }
  }
}

TEST(BitIo, ZeroAndFullWidthReads) {
  const std::vector<std::uint8_t> buf = {0x78, 0x56, 0x34, 0x12, 0xAB};
  BitReader r(buf);
  EXPECT_EQ(r.get(0), 0u);
  EXPECT_EQ(r.bits_consumed(), 0u);
  EXPECT_EQ(r.get(32), 0x12345678u);
  EXPECT_EQ(r.get(0), 0u);
  EXPECT_EQ(r.get(8), 0xABu);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.get(0), 0u);  // a zero-width read at the end is fine
}

TEST(BitIo, ThrowsExactlyOneBitPastTheEnd) {
  for (std::size_t bytes = 1; bytes <= 17; ++bytes) {
    const std::vector<std::uint8_t> buf(bytes, 0xA5);
    const std::size_t total = bytes * 8;
    // A reader with exactly `left` bits still unread.
    auto reader_with = [&](std::size_t left) {
      BitReader r(buf);
      for (std::size_t skip = total - left; skip > 0;) {
        const auto step = static_cast<unsigned>(std::min<std::size_t>(skip, 7));
        r.get(step);
        skip -= step;
      }
      return r;
    };
    for (unsigned count = 1; count <= 32 && count <= total; ++count) {
      if (count < 32) {
        BitReader over = reader_with(count);
        EXPECT_THROW(over.get(count + 1), std::out_of_range);
      }
      BitReader exact = reader_with(count);
      EXPECT_EQ(exact.get(count), stream_bits(buf, total - count, count));
      EXPECT_TRUE(exact.exhausted());
      EXPECT_THROW(exact.get(1), std::out_of_range);
    }
  }
}

TEST(BitIo, WriterAppendsAfterPrefix) {
  BitWriter w({0xAA, 0xBB}, 12);
  w.put(0x5, 3);
  w.put(0x1FF, 9);
  EXPECT_EQ(w.bit_count(), 12u);
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0xAA);
  EXPECT_EQ(buf[1], 0xBB);
  BitReader r(std::span<const std::uint8_t>(buf).subspan(2));
  EXPECT_EQ(r.get(3), 0x5u);
  EXPECT_EQ(r.get(9), 0x1FFu);
  EXPECT_EQ(r.get(4), 0u);  // padding
}

TEST(BitIo, BitCountTracksWrites) {
  BitWriter w;
  w.put(0, 5);
  w.put(0, 9);
  EXPECT_EQ(w.bit_count(), 14u);
}

TEST(BitIo, RandomizedRoundTrip) {
  crypto::ChaChaRng rng(21);
  std::vector<std::pair<std::uint32_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const unsigned count = 1 + rng.uniform(32);
    const std::uint32_t value =
        count == 32 ? rng.next_u32() : rng.next_u32() & ((1u << count) - 1);
    fields.emplace_back(value, count);
    w.put(value, count);
  }
  const auto buf = w.finish();
  BitReader r(buf);
  for (const auto& [value, count] : fields) EXPECT_EQ(r.get(count), value);
}

}  // namespace
}  // namespace medsen::compress
