#include "cloud/journal.h"

#include <filesystem>
#include <utility>

#include "compress/crc32.h"
#include "util/crash_point.h"
#include "util/serialize.h"

namespace medsen::cloud {

namespace {

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_u32le(p)) |
         (static_cast<std::uint64_t>(read_u32le(p + 4)) << 32);
}

std::vector<std::uint8_t> make_header() {
  util::ByteWriter out;
  out.u32(Journal::kMagic);
  out.u32(Journal::kVersion);
  out.u32(0);  // flags (reserved)
  out.u32(0);  // reserved
  return out.take();
}

/// A record body must hold at least its LSN and type byte.
constexpr std::size_t kMinBodySize = 8 + 1;

/// Scan a journal or segment image (at least a header long) into `out`,
/// whose payloads view `bytes`, and return the length of its valid
/// prefix. A damaged record that reaches EOF ends the scan when
/// `torn_tail_ok` (a torn append); anywhere else, or in a strict scan,
/// it throws PersistenceError.
std::size_t scan(std::span<const std::uint8_t> bytes, const std::string& path,
                 bool torn_tail_ok, std::vector<JournalRecordView>& out) {
  if (read_u32le(bytes.data()) != Journal::kMagic)
    throw PersistenceError("journal: bad magic in " + path);
  if (read_u32le(bytes.data() + 4) != Journal::kVersion)
    throw PersistenceError("journal: unsupported version in " + path);
  std::uint64_t last_lsn = 0;
  std::size_t offset = Journal::kHeaderSize;
  while (offset < bytes.size()) {
    const std::size_t rem = bytes.size() - offset;
    const std::size_t len = rem >= 8 ? read_u32le(bytes.data() + offset) : 0;
    const bool complete = rem >= 8 && len <= rem - 8;
    const auto body = complete ? bytes.subspan(offset + 8, len)
                               : std::span<const std::uint8_t>{};
    if (!complete || len < kMinBodySize ||
        compress::crc32(body) != read_u32le(bytes.data() + offset + 4)) {
      // A short length/CRC prefix, a body past EOF or a broken final
      // record is what a torn append leaves; anything earlier is not.
      if (torn_tail_ok && (!complete || len == rem - 8)) break;
      throw PersistenceError("journal: corrupt record at offset " +
                             std::to_string(offset) + " in " + path);
    }
    const std::uint64_t lsn = read_u64le(body.data());
    if (lsn <= last_lsn)
      throw PersistenceError("journal: non-monotonic LSN " +
                             std::to_string(lsn) + " in " + path);
    out.push_back({lsn, static_cast<JournalRecordType>(body[8]),
                   ByteView(body.data() + 9, body.size() - 9), offset});
    last_lsn = lsn;
    offset += 8 + len;
  }
  return offset;
}

}  // namespace

Journal::Journal(std::string path, Config config, std::uint32_t generation)
    : path_(std::move(path)), config_(config) {
  util::crash_point("journal.open");
  auto& bytes = recovered_.bytes_;
  if (util::file_exists(path_)) bytes = util::read_file(path_);

  // Scan phase: find the valid prefix. A file smaller than the header
  // can only be a creation the crash interrupted before anything was
  // acknowledged — reinitialize it. A *wrong* header is foreign or
  // corrupt state and must not be silently wiped.
  const bool reinit = bytes.size() < kHeaderSize;
  const std::size_t keep =
      reinit ? 0
             : scan(bytes, path_, /*torn_tail_ok=*/true, recovered_.records_);
  tail_truncated_ = !reinit && keep < bytes.size();

  state_.with(0, [&](State& state) {
    if (reinit) {
      start_file(state);
    } else {
      state.file = util::DurableFile::open_append(path_);
      if (tail_truncated_) {
        util::crash_point("journal.open.truncate_tail");
        state.file.truncate(keep);
      }
      state.end = keep;
    }
    state.next_lsn = recovered_.empty() ? 1 : recovered_.back().lsn + 1;
    state.appended = recovered_.size();
    state.generation = generation;
  });
}

void Journal::start_file(State& state) const {
  state.file = util::DurableFile::open_append(path_);
  state.file.truncate(0);
  state.file.append(make_header());
  state.file.sync();
  state.end = kHeaderSize;
}

void Journal::refuse_if_failed(const State& state) const {
  if (state.failed)
    throw PersistenceError("journal: " + path_ +
                           " refuses appends after a failed write or "
                           "rotation; reopen it to recover");
}

JournalImage Journal::read_segment(const std::string& path) {
  JournalImage image;
  image.bytes_ = util::read_file(path);
  if (image.bytes_.size() < kHeaderSize)
    throw PersistenceError("journal: short segment " + path);
  scan(image.bytes_, path, /*torn_tail_ok=*/false, image.records_);
  return image;
}

JournalImage Journal::take_recovered() { return std::move(recovered_); }

FrameLocator Journal::append(JournalRecordType type,
                             std::span<const std::uint8_t> payload) {
  return state_.with(0, [&](State& state) {
    refuse_if_failed(state);
    util::ByteWriter body;
    body.u64(state.next_lsn);
    body.u8(static_cast<std::uint8_t>(type));
    body.bytes(payload);
    util::ByteWriter frame;
    frame.u32(static_cast<std::uint32_t>(body.size()));
    frame.u32(compress::crc32(body.data()));
    frame.bytes(body.data());
    const std::span<const std::uint8_t> out{frame.data()};
    try {
      // Two half-appends around a crash site: the sweep gets a genuinely
      // torn tail, which open() must truncate cleanly.
      const std::size_t half = out.size() / 2;
      state.file.append(out.first(half));
      util::crash_point("journal.append.torn");
      state.file.append(out.subspan(half));
      util::crash_point("journal.append.unsynced");
      if (config_.fsync_each_append) state.file.sync();
    } catch (const std::exception&) {
      // A live process outlives the failure, so the next append must not
      // land behind a partial frame (reopen would refuse it as interior
      // corruption). A SimulatedCrash is no std::exception: its torn
      // tail stays, as a power cut's would, for open() to truncate.
      try {
        state.file.truncate(state.end);
      } catch (const std::exception&) {
        state.failed = true;
      }
      throw;
    }
    util::crash_point("journal.append.synced");
    const FrameLocator at{state.next_lsn, state.end, state.generation,
                          static_cast<std::uint32_t>(payload.size())};
    state.end += out.size();
    ++state.appended;
    ++state.next_lsn;
    return at;
  });
}

void Journal::rotate(const std::string& segment) {
  state_.with(0, [&](State& state) {
    refuse_if_failed(state);
    util::crash_point("journal.rotate.begin");
    std::filesystem::rename(path_, segment);
    ++state.generation;  // the old one's frames now live in `segment`
    try {
      util::crash_point("journal.rotate.renamed");
      start_file(state);
    } catch (...) {
      // state.file may still write into the renamed segment.
      state.failed = true;
      throw;
    }
    util::crash_point("journal.rotate.header_written");
    state.appended = 0;
  });
}

JournalRecord Journal::read_frame(const FrameLocator& at,
                                  const std::string& segment) const {
  const std::size_t size = 8 + kMinBodySize + at.payload_size;
  const auto frame = state_.with(0, [&](const State& state) {
    return util::read_file_range(
        at.generation == state.generation ? path_ : segment, at.offset, size);
  });
  const auto mismatch = [&](const char* what) {
    return PersistenceError(std::string("journal: ") + what +
                            " mismatch at offset " +
                            std::to_string(at.offset) + " of generation " +
                            std::to_string(at.generation) + " (LSN " +
                            std::to_string(at.lsn) + ")");
  };
  if (frame.size() != size || read_u32le(frame.data()) != size - 8)
    throw mismatch("frame length");
  const auto body = std::span<const std::uint8_t>(frame).subspan(8);
  if (compress::crc32(body) != read_u32le(frame.data() + 4))
    throw mismatch("CRC");
  if (read_u64le(body.data()) != at.lsn) throw mismatch("LSN");
  return {at.lsn, static_cast<JournalRecordType>(body[8]),
          std::vector<std::uint8_t>(body.begin() + 9, body.end())};
}

void Journal::raise_lsn_floor(std::uint64_t last_lsn) {
  state_.with(0, [&](State& state) {
    if (last_lsn + 1 > state.next_lsn) state.next_lsn = last_lsn + 1;
  });
}

std::uint64_t Journal::last_lsn() const {
  return state_.with(0,
                     [](const State& state) { return state.next_lsn - 1; });
}

std::uint64_t Journal::appended_since_compaction() const {
  return state_.with(0, [](const State& state) { return state.appended; });
}

std::uint32_t Journal::generation() const {
  return state_.with(0, [](const State& state) { return state.generation; });
}

}  // namespace medsen::cloud
