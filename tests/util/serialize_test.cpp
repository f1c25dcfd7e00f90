#include "util/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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
  ByteWriter w;
  w.u32(0x11223344);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x44);
  EXPECT_EQ(w.data()[3], 0x11);
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
  const std::vector<double> xs = {1.0, -0.0, 1e-310, 0.1,
                                  std::numeric_limits<double>::quiet_NaN()};
  ByteWriter vec;
  vec.u8(7);
  vec.f64_vec(xs);
  vec.u8(9);
  ByteWriter each;
  each.u8(7);
  each.u32(static_cast<std::uint32_t>(xs.size()));
  for (const double x : xs) each.f64(x);
  each.u8(9);
  EXPECT_EQ(vec.data(), each.data());

  ByteReader r(vec.data());
  EXPECT_EQ(r.u8(), 7);
  const auto back = r.f64_vec();
  ASSERT_EQ(back.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(std::memcmp(&back[i], &xs[i], sizeof(double)), 0) << i;
  EXPECT_EQ(r.u8(), 9);
  EXPECT_TRUE(r.done());
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
