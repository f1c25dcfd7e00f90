// cloud::Journal: append/replay round trips, LSN continuity across
// rotation, and the corruption sweeps — every truncation prefix and
// every single-bit flip of a populated journal must either recover
// cleanly (torn tail) or throw the typed PersistenceError (interior
// damage), never crash, hang, or silently load garbage, and a segment
// forgives no damage at all. A write or rotation that fails in a live
// process (driven by resource limits in a forked child) must leave a
// journal that reopens with every acknowledged record.

#include "cloud/journal.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <system_error>
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

/// Run `child` in a forked process, so the resource limits it sets die
/// with it, and return its exit code (-1 when it did not exit).
int run_in_child(const std::function<int()>& child) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 99;
    try {
      code = child();
    } catch (...) {
      code = 98;
    }
    std::_Exit(code);  // no atexit handlers, no test teardown
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
    return -1;
  return WEXITSTATUS(status);
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
                             payload_of({3}))
                  .lsn,
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
                            payload_of({2}))
                .lsn,
            2u);
  std::remove(path.c_str());
}

TEST(Journal, FailedAppendLeavesNoPartialFrameBehind) {
  // A write that fails part-way in a live process (here: the file-size
  // limit) must not leave its partial frame in front of the next
  // append. Reopening would refuse that as interior corruption, so the
  // next acknowledged record would be lost and the server could not
  // boot. The journal cuts the file back to its last whole frame.
  const auto path = temp_path("efbig.wal");
  std::remove(path.c_str());
  const std::vector<std::uint8_t> first(400, 0x11), third(400, 0x33);
  const int status = run_in_child([&] {
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of a signal death
    Journal journal(path, Journal::Config{/*fsync_each_append=*/false});
    journal.append(JournalRecordType::kDeviceEnrolled, first);
    rlimit original{};
    if (::getrlimit(RLIMIT_FSIZE, &original) != 0) return 10;
    rlimit capped = original;
    capped.rlim_cur = util::read_file(path).size() + 100;
    if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) return 11;
    try {
      journal.append(JournalRecordType::kRecordStored,
                     std::vector<std::uint8_t>(400, 0x22));
      return 12;
    } catch (const std::system_error&) {
    }
    if (::setrlimit(RLIMIT_FSIZE, &original) != 0) return 13;
    journal.append(JournalRecordType::kDeviceRevoked, third);
    return 0;
  });
  ASSERT_EQ(status, 0);
  Journal reopened(path);
  EXPECT_FALSE(reopened.tail_truncated());
  const auto records = reopened.take_recovered();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, first);
  // The failed append took no LSN: the next acknowledged record has 2.
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[1].type, JournalRecordType::kDeviceRevoked);
  EXPECT_EQ(records[1].payload, third);
  std::remove(path.c_str());
}

TEST(Journal, FailedRotationRefusesAppendsUntilReopened) {
  // A rotation that renamed the journal but could not start the next
  // one (here: no file descriptor left) must not let a later append
  // land in the renamed file, which is now an immutable segment. The
  // journal refuses appends instead, and reopening starts a fresh
  // journal after the complete segment.
  const auto path = temp_path("emfile.wal");
  const auto segment = temp_path("emfile.seg");
  std::remove(path.c_str());
  std::remove(segment.c_str());
  const int status = run_in_child([&] {
    Journal journal(path, Journal::Config{/*fsync_each_append=*/false});
    journal.append(JournalRecordType::kDeviceEnrolled, payload_of({1}));
    journal.append(JournalRecordType::kDeviceEnrolled, payload_of({2}));
    rlimit original{};
    if (::getrlimit(RLIMIT_NOFILE, &original) != 0) return 10;
    const int lowest_free = ::open("/dev/null", O_RDONLY);
    if (lowest_free < 0) return 11;
    ::close(lowest_free);
    rlimit capped = original;
    capped.rlim_cur = static_cast<rlim_t>(lowest_free);  // none left
    if (::setrlimit(RLIMIT_NOFILE, &capped) != 0) return 12;
    try {
      journal.rotate(segment);
      return 13;
    } catch (const std::system_error&) {
    }
    if (::setrlimit(RLIMIT_NOFILE, &original) != 0) return 14;
    try {
      journal.append(JournalRecordType::kDeviceRevoked, payload_of({3}));
      return 15;
    } catch (const PersistenceError&) {
    }
    return 0;
  });
  ASSERT_EQ(status, 0);
  const auto sealed = Journal::read_segment(segment);
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_EQ(sealed[1].payload, payload_of({2}));
  Journal reopened(path);
  EXPECT_TRUE(reopened.take_recovered().empty());
  reopened.raise_lsn_floor(sealed.back().lsn);  // as recovery does
  EXPECT_EQ(reopened.append(JournalRecordType::kDeviceRevoked,
                            payload_of({3}))
                .lsn,
            3u);
  EXPECT_EQ(Journal::read_segment(segment).size(), 2u);
  std::remove(path.c_str());
  std::remove(segment.c_str());
}

TEST(Journal, FramesReadBackByLocatorAcrossRotation) {
  // append() returns where each frame sits; read_frame() finds it in the
  // live journal and, after a rotation renamed that journal, in the
  // segment, and refuses a locator whose length or LSN does not match.
  const auto path = temp_path("locate.wal");
  const auto segment = temp_path("locate.seg");
  std::remove(path.c_str());
  Journal journal(path, Journal::Config{}, /*generation=*/4);
  const auto first =
      journal.append(JournalRecordType::kDeviceEnrolled, payload_of({1}));
  const auto second =
      journal.append(JournalRecordType::kRecordStored, payload_of({2, 2}));
  EXPECT_EQ(first.offset, Journal::kHeaderSize);
  EXPECT_EQ(second.generation, 4u);
  EXPECT_EQ(second.payload_size, 2u);
  EXPECT_EQ(journal.read_frame(second, segment).payload, payload_of({2, 2}));
  journal.rotate(segment);
  EXPECT_EQ(journal.generation(), 5u);
  const auto third =
      journal.append(JournalRecordType::kDeviceRevoked, payload_of({3}));
  EXPECT_EQ(third.offset, Journal::kHeaderSize);
  for (const auto& at : {first, second, third}) {
    const auto record = journal.read_frame(at, segment);
    EXPECT_EQ(record.lsn, at.lsn);
    EXPECT_EQ(record.payload.size(), at.payload_size);
  }
  EXPECT_EQ(journal.read_frame(second, segment).type,
            JournalRecordType::kRecordStored);
  auto wrong_lsn = second;
  ++wrong_lsn.lsn;
  EXPECT_THROW((void)journal.read_frame(wrong_lsn, segment), PersistenceError);
  auto wrong_size = second;
  ++wrong_size.payload_size;
  EXPECT_THROW((void)journal.read_frame(wrong_size, segment),
               PersistenceError);
  std::remove(path.c_str());
  std::remove(segment.c_str());
}

}  // namespace
}  // namespace medsen::cloud
