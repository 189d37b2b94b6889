#include "util/pipe_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "util/codec.hpp"

namespace loki::util {

namespace {

/// read_frame's first payload allocation (1 MiB).
constexpr std::size_t kFirstChunkBytes = std::size_t{1} << 20;

[[noreturn]] void throw_errno(const char* op) {
  throw std::runtime_error(std::string("pipe_io: ") + op + ": " +
                           std::strerror(errno));
}

/// Read exactly `len` bytes. Returns the number actually read, which is
/// only < len when EOF arrived first.
std::size_t read_upto(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

void write_exact(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, p + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    written += static_cast<std::size_t>(n);
  }
}

void write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes)
    throw std::runtime_error("pipe_io: frame exceeds kMaxFrameBytes");
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  write_exact(fd, header, 4);
  if (!payload.empty()) write_exact(fd, payload.data(), payload.size());
}

std::optional<std::vector<std::uint8_t>> read_frame(int fd) {
  std::uint8_t header[4];
  const std::size_t got = read_upto(fd, header, 4);
  if (got == 0) return std::nullopt;
  if (got < 4)
    throw codec::DecodeError("pipe_io: stream ended inside a frame header");
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  if (len > kMaxFrameBytes)
    throw codec::DecodeError("pipe_io: frame length " + std::to_string(len) +
                             " exceeds limit (corrupt stream?)");
  // The length is the peer's claim, not a fact: stray bytes on the stream
  // (say, a login banner on an ssh worker's stdout) read as a length of up
  // to 1 GiB. So the buffer starts at kFirstChunkBytes and doubles only as
  // bytes arrive; a frame no larger than that is still one allocation.
  std::vector<std::uint8_t> payload(
      std::min<std::size_t>(len, kFirstChunkBytes));
  std::size_t have = read_upto(fd, payload.data(), payload.size());
  while (have == payload.size() && have < len) {
    payload.resize(std::min<std::size_t>(len, 2 * payload.size()));
    have += read_upto(fd, payload.data() + have, payload.size() - have);
  }
  if (have < len)
    throw codec::DecodeError("pipe_io: stream ended inside a frame payload");
  return payload;
}

}  // namespace loki::util
