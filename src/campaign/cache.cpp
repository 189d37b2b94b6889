#include "campaign/cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "runtime/serialize.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

// The on-disk format, owned by this file alone. A segment is a stream of
// records, each a fixed 48-byte header and then the payload:
//
//   magic[4] | key[32] | u32 payload length | u64 checksum | payload
//
// The checksum covers the key, the length and the payload. Integers are
// little-endian. A record layout change gets a new live magic: old records
// then end their segment's scan at once and their keys re-run.

constexpr char kSegmentSuffix[] = ".seg";
constexpr std::uint8_t kLiveMagic[4] = {'L', 'K', 'S', '1'};
/// Written over a live magic to retire a damaged record; a scan skips it by
/// its length.
constexpr std::uint8_t kRetiredMagic[4] = {'L', 'K', 'S', 'x'};
constexpr std::size_t kKeyAt = 4;
constexpr std::size_t kLengthAt = kKeyAt + 32;
constexpr std::size_t kChecksumAt = kLengthAt + 4;
constexpr std::size_t kHeaderBytes = kChecksumAt + 8;

/// Word-at-a-time checksum, chained from `h`. Each step is a bijection of
/// the state for a fixed word, so any one changed word always changes the
/// result. It costs about a fifth of byte-wise FNV-1a on a 13.7 KB record.
std::uint64_t checksum(const std::uint8_t* p, std::size_t n, std::uint64_t h) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  // Up to 8 bytes as a little-endian word, whatever the host's order.
  const auto word = [](const std::uint8_t* q, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) v |= std::uint64_t{q[i]} << (8 * i);
    return v;
  };
  const auto mix = [&h](std::uint64_t w) {
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  };
  for (; n >= 8; p += 8, n -= 8) mix(word(p, 8));
  if (n > 0) mix(word(p, n));
  return h;
}

/// The checksum over a record's key, length and payload.
std::uint64_t record_checksum(const std::uint8_t* header,
                              const std::uint8_t* payload,
                              std::size_t length) {
  return checksum(payload, length,
                  checksum(header + kKeyAt, kChecksumAt - kKeyAt, 0));
}

/// 64 lowercase hex chars (runtime::experiment_cache_key's form) to the
/// 32-byte key; anything else is a caller bug.
std::array<std::uint8_t, 32> parse_key(const std::string& key) {
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::array<std::uint8_t, 32> out{};
  bool ok = key.size() == 2 * out.size();
  for (std::size_t i = 0; ok && i < out.size(); ++i) {
    const int hi = nibble(key[2 * i]);
    const int lo = nibble(key[2 * i + 1]);
    ok = hi >= 0 && lo >= 0;
    out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  if (!ok)
    throw ConfigError("ResultCache: malformed key '" + key +
                      "' (expected 64 hex chars)");
  return out;
}

/// pread until `size` bytes, EOF or an error; returns the bytes read.
std::size_t read_at(int fd, std::uint8_t* out, std::size_t size,
                    std::uint64_t offset) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

/// pwrite all of `size` bytes; false (errno set) on any failure.
bool write_at(int fd, const std::uint8_t* data, std::size_t size,
              std::uint64_t offset) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pwrite(fd, data + done, size - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) {
      errno = EIO;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t file_size(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw ConfigError("ResultCache: cannot create directory '" +
                      dir_.string() + "': " + ec.message());
  std::vector<std::filesystem::path> paths;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec))
    if (it->path().extension() == kSegmentSuffix) paths.push_back(it->path());
  if (ec)
    throw ConfigError("ResultCache: cannot list '" + dir_.string() +
                      "': " + ec.message());
  // Directory order varies by filesystem: sorted, the segment a duplicate
  // key resolves to and the one a writer adopts do not.
  std::sort(paths.begin(), paths.end());
  util::MutexLock lock(mu_);
  for (const std::filesystem::path& path : paths) index_segment(path);
}

ResultCache::~ResultCache() {
  for (const Segment& segment : segments_) ::close(segment.fd);
}

void ResultCache::index_segment(const std::filesystem::path& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  const bool writable = fd >= 0;
  // Not ours to write (another user's, a read-only mount): still served.
  if (fd < 0 && (errno == EACCES || errno == EPERM || errno == EROFS))
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;  // vanished or unreadable: its keys are misses
  const std::uint64_t size = file_size(fd);
  const auto id = static_cast<std::uint32_t>(segments_.size());
  Segment segment{fd, 0, writable, false};
  std::uint8_t header[kHeaderBytes] = {};
  while (size - segment.end >= kHeaderBytes &&
         read_at(fd, header, kHeaderBytes, segment.end) == kHeaderBytes) {
    // Bound the length before trusting it: a torn or corrupt header must
    // not index bytes past the end of the file.
    const std::uint64_t length = codec::Reader(header + kLengthAt, 4).u32();
    if (length > size - segment.end - kHeaderBytes) break;
    if (std::memcmp(header, kLiveMagic, 4) == 0) {
      Key key{};
      std::memcpy(key.data(), header + kKeyAt, key.size());
      index_[key] = {id, static_cast<std::uint32_t>(length), segment.end};
      segment.dirty = true;  // another writer's bytes: synced once
    } else if (std::memcmp(header, kRetiredMagic, 4) != 0) {
      break;
    }
    segment.end += kHeaderBytes + length;
  }
  segments_.push_back(segment);
}

ResultCache::Segment& ResultCache::writer_segment() {
  if (writer_ != kNoWriter) return segments_[writer_];
  // A segment this cache did not create may not have a durable name yet:
  // its creator may have died, or may still be, between creating it and
  // fsyncing the directory. One fsync covers every segment listed at open.
  if (!dir_synced_ && !segments_.empty()) sync_dir();
  // Adopt a segment no live writer holds, if it still ends where this
  // cache's scan ended: a torn tail, a bad header, another writer's append
  // since the scan and a partial record of a failed store all leave the
  // file longer than that.
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& segment = segments_[i];
    if (!segment.writable || ::flock(segment.fd, LOCK_EX | LOCK_NB) != 0)
      continue;
    if (file_size(segment.fd) == segment.end) {
      writer_ = i;
      return segment;
    }
    ::flock(segment.fd, LOCK_UN);
  }
  for (unsigned n = 0;; ++n) {
    const std::filesystem::path path =
        dir_ / (std::to_string(::getpid()) + "-" + std::to_string(n) +
                kSegmentSuffix);
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0 && errno == EEXIST) continue;
    if (fd < 0)
      throw CacheError("ResultCache: cannot create segment '" +
                       path.string() + "': " + std::strerror(errno));
    // The new name must be durable before any record in it is journaled.
    try {
      sync_dir();
    } catch (const CacheError&) {
      ::close(fd);
      throw;
    }
    // A cache that listed the directory just now may have adopted the
    // empty segment first (and fsyncs the directory itself); leave it that
    // one.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd);
      continue;
    }
    writer_ = segments_.size();
    segments_.push_back({fd, 0, true, false});
    return segments_.back();
  }
}

void ResultCache::sync_dir() {
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || ::fsync(dir_fd) != 0) {
    const int err = errno;
    if (dir_fd >= 0) ::close(dir_fd);
    throw CacheError("ResultCache: fsync of directory '" + dir_.string() +
                     "' failed: " + std::strerror(err));
  }
  ::close(dir_fd);
  dir_synced_ = true;
}

bool ResultCache::contains(const std::string& key) {
  const Key k = parse_key(key);
  util::MutexLock lock(mu_);
  if (index_.contains(k)) return true;
  ++stats_.misses;
  return false;
}

std::optional<runtime::ExperimentResult> ResultCache::lookup(
    const std::string& key) {
  const Key k = parse_key(key);
  Location at{};
  int fd = -1;
  {
    util::MutexLock lock(mu_);
    const auto it = index_.find(k);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    at = it->second;
    fd = segments_[at.segment].fd;
  }
  std::vector<std::uint8_t> record(kHeaderBytes + at.length);
  const std::size_t got = read_at(fd, record.data(), record.size(), at.offset);
  const std::uint8_t* payload = record.data() + kHeaderBytes;
  codec::Reader sizes(record.data() + kLengthAt, kHeaderBytes - kLengthAt);
  if (got == record.size() &&
      std::memcmp(record.data(), kLiveMagic, 4) == 0 &&
      std::memcmp(record.data() + kKeyAt, k.data(), k.size()) == 0 &&
      sizes.u32() == at.length &&
      sizes.u64() == record_checksum(record.data(), payload, at.length)) {
    try {
      runtime::ExperimentResult result =
          runtime::decode_experiment_result(payload, at.length);
      util::MutexLock lock(mu_);
      ++stats_.hits;
      return result;
    } catch (const codec::DecodeError&) {
      // Intact bytes that do not decode: retired like a torn record.
    }
  }
  retire(k, at, got >= sizeof kRetiredMagic);
  return std::nullopt;
}

void ResultCache::retire(const Key& key, const Location& at, bool on_disk) {
  util::MutexLock lock(mu_);
  if (const auto it = index_.find(key); it != index_.end() && it->second == at)
    index_.erase(it);
  // Persist the retirement, so no later open indexes the record and serves
  // it as a hit; the next sync() makes it durable with the re-run's record.
  // Never written past the end of the file: that would extend it.
  Segment& segment = segments_[at.segment];
  if (on_disk && segment.writable &&
      write_at(segment.fd, kRetiredMagic, sizeof kRetiredMagic, at.offset))
    segment.dirty = true;
  ++stats_.corrupt;
  ++stats_.misses;
}

void ResultCache::store(const std::string& key,
                        const runtime::ExperimentResult& result) {
  const Key k = parse_key(key);
  std::vector<std::uint8_t> record(kHeaderBytes);
  runtime::encode_experiment_result(result, record);
  const std::size_t length = record.size() - kHeaderBytes;
  if (length > std::numeric_limits<std::uint32_t>::max())
    throw CacheError("ResultCache: result for key " + key + " is " +
                     std::to_string(length) + " bytes, over the 4 GiB limit");
  codec::Writer header;
  header.bytes(kLiveMagic, sizeof kLiveMagic);
  header.bytes(k.data(), k.size());
  header.u32(static_cast<std::uint32_t>(length));
  header.u64(record_checksum(header.data().data(),
                             record.data() + kHeaderBytes, length));
  std::copy(header.data().begin(), header.data().end(), record.begin());

  util::MutexLock lock(mu_);
  Segment& segment = writer_segment();
  if (!write_at(segment.fd, record.data(), record.size(), segment.end)) {
    const int err = errno;
    // Part of the record may sit past `end` now: never append behind it.
    // The next store picks its segment afresh, and the file's size rules
    // this one out unless nothing of the record landed.
    writer_ = kNoWriter;
    throw CacheError("ResultCache: store of key " + key +
                     " failed: " + std::strerror(err));
  }
  index_[k] = {static_cast<std::uint32_t>(writer_),
               static_cast<std::uint32_t>(length), segment.end};
  segment.end += record.size();
  segment.dirty = true;
  ++stats_.stores;
}

void ResultCache::sync() {
  util::MutexLock lock(mu_);
  // Final once failed: a retry can succeed over pages the kernel dropped
  // (see the header comment).
  if (!sync_error_.empty()) throw CacheError(sync_error_);
  for (Segment& segment : segments_) {
    if (!segment.dirty) continue;
    if (::fdatasync(segment.fd) != 0) {
      sync_error_ = "ResultCache: fdatasync of a segment in '" +
                    dir_.string() + "' failed: " + std::strerror(errno);
      throw CacheError(sync_error_);
    }
    segment.dirty = false;
    ++stats_.syncs;
  }
}

}  // namespace loki::campaign
