#include "util/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace loki::util {

namespace {

[[noreturn]] void fail(const std::string& step,
                       const std::filesystem::path& path, int err) {
  throw WriteError("atomic write: " + step + " '" + path.string() +
                       "' failed: " + std::strerror(err),
                   err);
}

/// Process-wide serial so concurrent writers (threads sharing one cache)
/// never share a temp name; the pid disambiguates across processes writing
/// into one shared directory.
std::atomic<std::uint64_t> temp_serial{0};

}  // namespace

void atomic_write_file(const std::filesystem::path& path, const void* data,
                       std::size_t size) {
  const std::filesystem::path tmp =
      path.parent_path() /
      (path.filename().string() + ".tmp." + std::to_string(::getpid()) + "." +
       std::to_string(temp_serial.fetch_add(1)));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("open", tmp, errno);

  const auto cleanup = [&] {
    ::close(fd);
    ::unlink(tmp.c_str());
  };

  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t remaining = size;
  while (remaining > 0) {
    const ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      cleanup();
      fail("write", tmp, err);
    }
    if (n == 0) {  // a 0-byte write on a regular file is a short-write bug
      cleanup();
      fail("write (short)", tmp, EIO);
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    cleanup();
    fail("fsync", tmp, err);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail("close", tmp, err);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail("rename", path, err);
  }
}

void rename_path(const std::filesystem::path& from,
                 const std::filesystem::path& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) fail("rename", to, errno);
}

}  // namespace loki::util
