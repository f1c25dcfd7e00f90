#pragma once
// Durable binary file helpers for the persistence layer, built on POSIX
// file descriptors so the fsync discipline is explicit (std::ofstream
// can flush its own buffer but cannot ask the kernel to reach the
// platter). Failures throw std::system_error carrying the errno, so a
// full disk is distinguishable from a permissions problem at the call
// site. Every durability boundary names a crash site (util/crash_point.h)
// so the chaos harness can kill the process at each intermediate state.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace medsen::util {

/// Write a byte buffer to a file, replacing any existing content. No
/// durability guarantee (no fsync) — use write_file_atomic for state
/// that must survive a crash. Throws std::system_error on I/O failure.
void write_file(const std::string& path, std::span<const std::uint8_t> data);

/// Atomically and durably replace `path` with `data`:
///
///   1. write `path + ".tmp"`, 2. fsync the tmp file, 3. rename it over
///   the target, 4. fsync the parent directory.
///
/// A crash at any point leaves either the complete previous file or the
/// complete new file (at worst plus an orphaned .tmp); after a normal
/// return the new content survives power loss — the rename is not
/// durable until the directory entry itself is synced. Throws
/// std::system_error on I/O failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> data);

/// Read a whole file; throws std::system_error if it cannot be opened
/// or read.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Read `size` bytes at `offset` of `path` (one open, positioned reads).
/// Returns fewer bytes only when the file ends first; throws
/// std::system_error if it cannot be opened or read.
std::vector<std::uint8_t> read_file_range(const std::string& path,
                                          std::uint64_t offset,
                                          std::size_t size);

/// Does the path exist? stat-based on purpose: a file that exists but
/// cannot be read (permissions) still reports true, so callers that
/// would (re)initialize an absent file never wipe live state they
/// merely failed to open — the subsequent open/read throws the real
/// error instead. Follows symlinks; any stat-able entry counts.
bool file_exists(const std::string& path);

/// Unlink `path`. Returns true if a file was removed, false if the path
/// did not exist; any other failure throws std::system_error. The
/// caller decides whether the unlink needs a parent-directory fsync
/// (sync_parent_dir) to be durable.
bool remove_file(const std::string& path);

/// fsync the directory containing `path`, making renames/creations of
/// entries inside it durable.
void sync_parent_dir(const std::string& path);

/// Create a directory (parents must exist). Existing directory is fine.
void ensure_directory(const std::string& path);

/// An append-only file handle with explicit durability: append() writes,
/// sync() makes everything written so far durable, truncate() durably
/// discards a suffix (a torn journal tail). Move-only; closes on
/// destruction. All failures throw std::system_error.
class DurableFile {
 public:
  DurableFile() = default;
  ~DurableFile();
  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Open `path` for appending, creating it (and durably recording the
  /// creation in the parent directory) if needed.
  static DurableFile open_append(const std::string& path);

  void append(std::span<const std::uint8_t> data);
  void sync();
  /// ftruncate to `size` bytes and fsync.
  void truncate(std::uint64_t size);
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace medsen::util
