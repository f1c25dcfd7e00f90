#include "util/fileio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <system_error>
#include <utility>

#include "util/crash_point.h"

namespace medsen::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// The directory component of `path` ("." when there is none).
std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

int open_or_throw(const std::string& path, int flags, mode_t mode = 0644) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, mode);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw_errno("open: " + path);
  return fd;
}

void write_all(int fd, std::span<const std::uint8_t> data,
               const std::string& path) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write: " + path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_errno("fsync: " + path);
}

/// RAII fd so an exception (including SimulatedCrash) between open and
/// close never leaks a descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

void sync_dir(const std::string& dir) {
  const Fd fd(open_or_throw(dir, O_RDONLY | O_DIRECTORY));
  fsync_or_throw(fd.get(), dir);
}

}  // namespace

void write_file(const std::string& path,
                std::span<const std::uint8_t> data) {
  const Fd fd(open_or_throw(path, O_WRONLY | O_CREAT | O_TRUNC));
  write_all(fd.get(), data, path);
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  {
    const Fd fd(open_or_throw(tmp, O_WRONLY | O_CREAT | O_TRUNC));
    crash_point("fileio.atomic.tmp_open");
    // Two half-writes around a crash site so the sweep exercises a
    // genuinely torn temp file, not just an empty one.
    const std::size_t half = data.size() / 2;
    write_all(fd.get(), data.first(half), tmp);
    crash_point("fileio.atomic.tmp_partial");
    write_all(fd.get(), data.subspan(half), tmp);
    crash_point("fileio.atomic.tmp_written");
    fsync_or_throw(fd.get(), tmp);
    crash_point("fileio.atomic.tmp_synced");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    throw_errno("rename: " + tmp + " -> " + path);
  }
  crash_point("fileio.atomic.renamed");
  // The rename is not durable until the directory entry is: a power cut
  // here may resurrect the old file, never tear the new one.
  sync_dir(parent_dir(path));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const Fd fd(open_or_throw(path, O_RDONLY));
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) throw_errno("fstat: " + path);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(st.st_size));
  std::size_t total = 0;
  while (total < data.size()) {
    const ssize_t n =
        ::read(fd.get(), data.data() + total, data.size() - total);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read: " + path);
    }
    if (n == 0) break;  // shrank under us; return what exists
    total += static_cast<std::size_t>(n);
  }
  data.resize(total);
  return data;
}

std::vector<std::uint8_t> read_file_range(const std::string& path,
                                          std::uint64_t offset,
                                          std::size_t size) {
  const Fd fd(open_or_throw(path, O_RDONLY));
  std::vector<std::uint8_t> data(size);
  std::size_t total = 0;
  while (total < size) {
    const ssize_t n = ::pread(fd.get(), data.data() + total, size - total,
                              static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread: " + path);
    }
    if (n == 0) break;  // end of file
    total += static_cast<std::size_t>(n);
  }
  data.resize(total);
  return data;
}

bool file_exists(const std::string& path) {
  // stat, not access(R_OK): an existing-but-unreadable file must still
  // report true, or a caller (Journal::open) would mistake a permissions
  // problem for absence and reinitialize — destroying acknowledged
  // state. The open/read that follows surfaces the real EACCES.
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

bool remove_file(const std::string& path) {
  if (::unlink(path.c_str()) == 0) return true;
  if (errno == ENOENT) return false;
  throw_errno("unlink: " + path);
}

void sync_parent_dir(const std::string& path) {
  sync_dir(parent_dir(path));
}

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) return;
  if (errno == EEXIST) return;
  throw_errno("mkdir: " + path);
}

DurableFile::~DurableFile() { close(); }

DurableFile::DurableFile(DurableFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

DurableFile& DurableFile::operator=(DurableFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

DurableFile DurableFile::open_append(const std::string& path) {
  const bool existed = file_exists(path);
  DurableFile file;
  file.fd_ = open_or_throw(path, O_WRONLY | O_CREAT | O_APPEND);
  file.path_ = path;
  // A freshly created file is not durable until its directory entry is.
  if (!existed) sync_dir(parent_dir(path));
  return file;
}

void DurableFile::append(std::span<const std::uint8_t> data) {
  write_all(fd_, data, path_);
}

void DurableFile::sync() { fsync_or_throw(fd_, path_); }

void DurableFile::truncate(std::uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0)
    throw_errno("ftruncate: " + path_);
  crash_point("fileio.truncate.before_sync");
  fsync_or_throw(fd_, path_);
}

std::uint64_t DurableFile::size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw_errno("fstat: " + path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void DurableFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace medsen::util
