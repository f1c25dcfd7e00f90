// cloud::Journal: append/replay round trips, LSN continuity across
// rotation, and the corruption sweeps — every truncation prefix and
// every single-bit flip of a populated journal must either recover
// cleanly (torn tail) or throw the typed PersistenceError (interior
// damage), never crash, hang, or silently load garbage, and a segment
// forgives no damage at all.

#include "cloud/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "util/crash_point.h"
#include "util/fileio.h"

namespace medsen::cloud {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/medsen_journal_" + name;
}

std::vector<std::uint8_t> payload_of(std::initializer_list<std::uint8_t> v) {
  return std::vector<std::uint8_t>(v);
}

/// A journal with three records, closed so the file is on disk.
void write_three_records(const std::string& path) {
  std::remove(path.c_str());
  Journal journal(path);
  journal.append(JournalRecordType::kDeviceEnrolled, payload_of({1}));
  journal.append(JournalRecordType::kRecordStored, payload_of({2, 2}));
  journal.append(JournalRecordType::kDeviceRevoked, payload_of({3, 3, 3}));
}

TEST(Journal, AppendThenReopenReplaysInOrder) {
  const auto path = temp_path("roundtrip.wal");
  write_three_records(path);

  Journal reopened(path);
  EXPECT_FALSE(reopened.tail_truncated());
  const auto records = reopened.take_recovered();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].type, JournalRecordType::kDeviceEnrolled);
  EXPECT_EQ(records[0].payload, payload_of({1}));
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[2].lsn, 3u);
  EXPECT_EQ(records[2].payload, payload_of({3, 3, 3}));
  EXPECT_EQ(reopened.last_lsn(), 3u);
  std::remove(path.c_str());
}

TEST(Journal, LsnsSurviveCompaction) {
  const auto path = temp_path("compact.wal");
  const auto segment = temp_path("compact.seg");
  std::remove(path.c_str());
  std::vector<std::uint8_t> before;
  {
    Journal journal(path);
    journal.append(JournalRecordType::kDeviceEnrolled, payload_of({1}));
    journal.append(JournalRecordType::kDeviceEnrolled, payload_of({2}));
    before = util::read_file(path);
    journal.rotate(segment);
    EXPECT_EQ(journal.appended_since_compaction(), 0u);
    EXPECT_EQ(util::read_file(path).size(), Journal::kHeaderSize);
    // The sequence continues past the rotation.
    EXPECT_EQ(journal.append(JournalRecordType::kDeviceRevoked,
                             payload_of({3})),
              3u);
  }
  // The segment is the old journal, byte for byte.
  EXPECT_EQ(util::read_file(segment), before);
  const auto sealed = Journal::read_segment(segment);
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_EQ(sealed[1].lsn, 2u);
  EXPECT_EQ(sealed[1].payload, payload_of({2}));
  Journal reopened(path);
  const auto records = reopened.take_recovered();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 3u);
  std::remove(path.c_str());
  std::remove(segment.c_str());
}

TEST(Journal, SegmentReadIsStrict) {
  // A segment was complete when it was renamed, so unlike the live
  // journal it has no torn tail to forgive: every bit flip and every
  // cut inside a record throws, the final record included, and the
  // file is left as it was.
  const auto path = temp_path("strict.wal");
  write_three_records(path);
  const auto full = util::read_file(path);
  std::vector<std::size_t> boundaries;  // where each record starts
  for (std::size_t at = Journal::kHeaderSize; at < full.size();) {
    boundaries.push_back(at);
    at += 8 + (full[at] | (full[at + 1] << 8));
  }
  boundaries.push_back(full.size());
  ASSERT_EQ(boundaries.size(), 4u);

  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    // The header's flags and reserved words are not checked.
    if (byte >= 8 && byte < Journal::kHeaderSize) continue;
    auto corrupt = full;
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    util::write_file(path, corrupt);
    EXPECT_THROW((void)Journal::read_segment(path), PersistenceError)
        << "byte " << byte;
    EXPECT_EQ(util::read_file(path), corrupt);
  }
  for (std::size_t len = 0; len < full.size(); ++len) {
    util::write_file(path, std::span(full).first(len));
    if (std::find(boundaries.begin(), boundaries.end(), len) !=
        boundaries.end()) {
      // A cut between records leaves a shorter, valid segment; only an
      // authenticated log could tell.
      EXPECT_NO_THROW((void)Journal::read_segment(path)) << "len " << len;
    } else {
      EXPECT_THROW((void)Journal::read_segment(path), PersistenceError)
          << "len " << len;
    }
  }
  std::remove(path.c_str());
}

TEST(Journal, EveryTruncationPrefixRecoversOrReinitializes) {
  const auto path = temp_path("truncsweep.wal");
  write_three_records(path);
  const auto full = util::read_file(path);

  for (std::size_t len = 0; len <= full.size(); ++len) {
    std::vector<std::uint8_t> prefix(full.begin(), full.begin() + len);
    util::write_file(path, prefix);
    // Truncation damage always reaches EOF, so open() must ALWAYS
    // succeed here: shorter than a header reinitializes, anything else
    // is a torn tail that truncates to the longest valid prefix.
    Journal journal(path);
    const auto records = journal.take_recovered();
    for (std::size_t i = 0; i < records.size(); ++i)
      EXPECT_EQ(records[i].lsn, i + 1) << "prefix len " << len;
    EXPECT_LE(records.size(), 3u);
    // The journal must stay appendable after recovery.
    journal.append(JournalRecordType::kDeviceEnrolled, payload_of({9}));
  }
  std::remove(path.c_str());
}

TEST(Journal, EveryBitFlipRecoversTailOrThrowsTyped) {
  const auto path = temp_path("bitflip.wal");
  write_three_records(path);
  const auto full = util::read_file(path);

  std::size_t recovered_runs = 0;
  std::size_t rejected_runs = 0;
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = full;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      util::write_file(path, corrupt);
      try {
        Journal journal(path);
        // Open succeeded: whatever it recovered must be a clean prefix.
        const auto records = journal.take_recovered();
        for (std::size_t i = 0; i < records.size(); ++i)
          EXPECT_EQ(records[i].lsn, i + 1)
              << "byte " << byte << " bit " << bit;
        ++recovered_runs;
      } catch (const PersistenceError&) {
        // Interior damage (or a broken header) rejected with the typed
        // error — also acceptable, never UB.
        ++rejected_runs;
      }
    }
  }
  // Both outcomes must actually occur across the sweep: header/interior
  // flips reject, final-record flips truncate-and-recover.
  EXPECT_GT(recovered_runs, 0u);
  EXPECT_GT(rejected_runs, 0u);
  std::remove(path.c_str());
}

TEST(Journal, InteriorCorruptionThrowsNotTruncates) {
  const auto path = temp_path("interior.wal");
  write_three_records(path);
  auto full = util::read_file(path);
  // Flip a byte inside the FIRST record's body (just past its 8-byte
  // frame prefix, past the 16-byte header): records follow after it, so
  // this cannot be a torn append.
  full[Journal::kHeaderSize + 8 + 2] ^= 0xFF;
  util::write_file(path, full);
  EXPECT_THROW(Journal{path}, PersistenceError);
  std::remove(path.c_str());
}

TEST(Journal, ForeignMagicIsRejectedNotWiped) {
  const auto path = temp_path("foreign.wal");
  std::vector<std::uint8_t> not_a_journal(64, 0x5A);
  util::write_file(path, not_a_journal);
  EXPECT_THROW(Journal{path}, PersistenceError);
  // The file must be untouched — foreign state is never reinitialized.
  EXPECT_EQ(util::read_file(path), not_a_journal);
  std::remove(path.c_str());
}

TEST(Journal, TornAppendCrashLeavesRecoverableTail) {
  const auto path = temp_path("torncrash.wal");
  std::remove(path.c_str());
  {
    Journal journal(path);
    journal.append(JournalRecordType::kDeviceEnrolled, payload_of({1}));
    util::ScopedCrashArm armed("journal.append.torn");
    EXPECT_THROW(journal.append(JournalRecordType::kRecordStored,
                                payload_of({0xEE, 0xEE, 0xEE, 0xEE})),
                 util::SimulatedCrash);
  }
  Journal reopened(path);
  EXPECT_TRUE(reopened.tail_truncated());
  const auto records = reopened.take_recovered();
  ASSERT_EQ(records.size(), 1u);  // the torn append was never acked
  EXPECT_EQ(records[0].lsn, 1u);
  // The tail is clean again: the next append lands at LSN 2.
  EXPECT_EQ(reopened.append(JournalRecordType::kRecordStored,
                            payload_of({2})),
            2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace medsen::cloud
