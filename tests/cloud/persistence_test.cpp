#include "cloud/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/fileio.h"

namespace medsen::cloud {
namespace {

/// The body codecs DurableState frames in its snapshots, plus the
/// magic | version | CRC container around them.
class PersistenceTest : public ::testing::Test {};

constexpr std::uint32_t kEnrollMagic = 0x54454E52;  // test-only magics
constexpr std::uint32_t kRecordMagic = 0x54524543;

auth::CytoCode code_of(std::initializer_list<std::uint8_t> levels) {
  auth::CytoCode code;
  code.levels = levels;
  return code;
}

RecordStore rebuild(std::span<const std::uint8_t> body) {
  RecordStore store;
  for (auto& [key, records] : decode_records_body(body))
    store.restore(key, std::move(records));
  return store;
}

TEST_F(PersistenceTest, EnrollmentsRoundTrip) {
  auth::EnrollmentDatabase db{auth::CytoAlphabet{}};
  db.enroll("alice", code_of({1, 2}));
  db.enroll("bob", code_of({3, 0}));

  const auto loaded = decode_enrollments_body(encode_enrollments_body(db));
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.lookup(code_of({1, 2})), "alice");
  EXPECT_EQ(loaded.lookup(code_of({3, 0})), "bob");
  EXPECT_EQ(loaded.alphabet().levels(), db.alphabet().levels());
}

TEST_F(PersistenceTest, CustomAlphabetSurvives) {
  auth::CytoAlphabet alphabet;
  alphabet.concentration_levels_per_ul = {0.0, 200.0, 600.0};
  auth::EnrollmentDatabase db{alphabet};
  db.enroll("carol", code_of({2, 1}));
  const auto loaded = decode_enrollments_body(encode_enrollments_body(db));
  EXPECT_EQ(loaded.alphabet().levels(), 3u);
  EXPECT_DOUBLE_EQ(loaded.alphabet().concentration_levels_per_ul[2], 600.0);
}

TEST_F(PersistenceTest, RecordsRoundTrip) {
  RecordStore store;
  store.store(code_of({1, 1}), {10, {1, 2, 3}});
  store.store(code_of({1, 1}), {11, {4}});
  store.store(code_of({0, 2}), {12, {}});

  const auto loaded = rebuild(encode_records_body(store));
  EXPECT_EQ(loaded.record_count(), 3u);
  EXPECT_EQ(loaded.fetch(code_of({1, 1})).size(), 2u);
  EXPECT_EQ(loaded.latest(code_of({1, 1}))->session_id, 11u);
  EXPECT_EQ(loaded.fetch(code_of({1, 1}))[0].encrypted_result,
            (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(PersistenceTest, EmptyStoresRoundTrip) {
  EXPECT_EQ(decode_enrollments_body(encode_enrollments_body(
                auth::EnrollmentDatabase{auth::CytoAlphabet{}}))
                .size(),
            0u);
  EXPECT_EQ(rebuild(encode_records_body(RecordStore{})).record_count(), 0u);
}

TEST_F(PersistenceTest, CorruptedFileRejected) {
  auth::EnrollmentDatabase db{auth::CytoAlphabet{}};
  db.enroll("alice", code_of({1, 2}));
  auto bytes = seal_blob(kEnrollMagic, encode_enrollments_body(db));
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_THROW((void)unseal_blob(kEnrollMagic, bytes), std::runtime_error);
}

TEST_F(PersistenceTest, WrongMagicRejected) {
  RecordStore store;
  store.store(code_of({1, 1}), {1, {9}});
  const auto bytes = seal_blob(kRecordMagic, encode_records_body(store));
  // A records container opened as enrollments must be refused.
  EXPECT_THROW((void)unseal_blob(kEnrollMagic, bytes), std::runtime_error);
}

TEST(FileIo, RoundTripAndExists) {
  const std::string path =
      std::string(::testing::TempDir()) + "/medsen_fileio.bin";
  const std::vector<std::uint8_t> data = {0, 1, 255, 42};
  util::write_file(path, data);
  EXPECT_TRUE(util::file_exists(path));
  EXPECT_EQ(util::read_file(path), data);
  std::remove(path.c_str());
  EXPECT_FALSE(util::file_exists(path));
}

}  // namespace
}  // namespace medsen::cloud
