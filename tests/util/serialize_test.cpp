#include "util/serialize.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace medsen::util {
namespace {

TEST(Serialize, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-3.14159);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, LittleEndianLayout) {
  // Literal wire bytes, least significant first, at odd offsets.
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0x11223344);
  w.u64(0x0123456789ABCDEFull);
  w.f64(1.0);
  w.f64(-0.0);
  w.f64(std::bit_cast<double>(0x000FFFFFFFFFFFFFull));  // largest denormal
  const std::vector<std::uint8_t> expected = {
      0xAB,                                            // u8
      0x34, 0x12,                                      // u16
      0x44, 0x33, 0x22, 0x11,                          // u32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // 1.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00,  // denormal
  };
  EXPECT_EQ(w.data(), expected);

  ByteReader r(expected);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x11223344u);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x3FF0000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x8000000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x000FFFFFFFFFFFFFull);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, BlobAndStringRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 0, 255};
  w.blob(blob);
  w.str("medsen");
  ByteReader r(w.data());
  EXPECT_EQ(r.blob(), blob);
  EXPECT_EQ(r.str(), "medsen");
}

TEST(Serialize, F64VectorRoundTrip) {
  ByteWriter w;
  const std::vector<double> xs = {0.0, -1.5, 1e300, 1e-300};
  w.f64_vec(xs);
  ByteReader r(w.data());
  EXPECT_EQ(r.f64_vec(), xs);
}

TEST(Serialize, F64VectorLayoutMatchesPerElementEncoding) {
  // Each vector is a u32 count, then every element's bit pattern least
  // significant byte first, between two marker bytes at odd offsets.
  // NaN payloads (quiet, signaling, negative) must survive bit for bit.
  const std::vector<std::vector<std::uint64_t>> cases = {
      {},
      {0x3FF0000000000000ull},  // 1.0
      {0x8000000000000000ull,   // -0.0
       0x0000000000000001ull,   // smallest denormal
       0x7FF8000000000ABCull,   // quiet NaN, payload 0xABC
       0x7FF0000000000001ull,   // signaling NaN
       0xFFF8DEADBEEF0001ull},  // negative quiet NaN
      {0x3FB999999999999Aull,   // 0.1
       0x800FFFFFFFFFFFFFull,   // -(largest denormal)
       0x7FF0000000000000ull},  // +inf
  };
  for (const auto& bits : cases) {
    std::vector<double> xs;
    std::vector<std::uint8_t> expected = {7};
    for (int i = 0; i < 4; ++i)
      expected.push_back(static_cast<std::uint8_t>(bits.size() >> (8 * i)));
    for (const std::uint64_t b : bits) {
      xs.push_back(std::bit_cast<double>(b));
      for (int i = 0; i < 8; ++i)
        expected.push_back(static_cast<std::uint8_t>(b >> (8 * i)));
    }
    expected.push_back(9);

    ByteWriter vec;
    vec.u8(7);
    vec.f64_vec(xs);
    vec.u8(9);
    EXPECT_EQ(vec.data(), expected) << bits.size() << " elements";

    ByteReader r(expected);
    EXPECT_EQ(r.u8(), 7);
    const auto back = r.f64_vec();
    ASSERT_EQ(back.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), bits[i]) << i;
    EXPECT_EQ(r.u8(), 9);
    EXPECT_TRUE(r.done());
  }
}

TEST(Serialize, TruncatedF64VectorThrows) {
  ByteWriter w;
  w.u32(3);  // claims three elements, holds two
  w.f64(1.0);
  w.f64(2.0);
  ByteReader r(w.data());
  EXPECT_THROW(r.f64_vec(), std::out_of_range);
}

TEST(Serialize, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), std::out_of_range);
}

TEST(Serialize, TruncatedBlobThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes, provides none
  ByteReader r(w.data());
  EXPECT_THROW(r.blob(), std::out_of_range);
}

TEST(Serialize, SpecialDoublesSurvive) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  ByteReader r(w.data());
  EXPECT_TRUE(std::isinf(r.f64()));
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
}

TEST(ByteReader, CountU32RejectsImpossibleCounts) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 elements, but nothing follows
  ByteReader r(w.data());
  EXPECT_THROW(r.count_u32(8), std::out_of_range);
}

TEST(ByteReader, CountU32AcceptsSatisfiableCounts) {
  ByteWriter w;
  w.u32(3);
  w.u8(1);
  w.u8(2);
  w.u8(3);
  ByteReader r(w.data());
  EXPECT_EQ(r.count_u32(1), 3u);
}

TEST(ByteReader, CountU32HandlesMaxCountWithoutOverflow) {
  // 2^32-1 elements x 8 bytes must not wrap around in 64-bit math.
  ByteWriter w;
  w.u32(0xFFFFFFFF);
  ByteReader r(w.data());
  EXPECT_THROW(r.count_u32(8), std::out_of_range);
}

TEST(ByteReader, ExpectDoneThrowsOnLeftovers) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.expect_done("unit"), std::runtime_error);
  (void)r.u8();
  EXPECT_NO_THROW(r.expect_done("unit"));
}

}  // namespace
}  // namespace medsen::util
