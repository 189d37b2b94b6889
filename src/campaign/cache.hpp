// Content-addressed experiment result cache.
//
// An experiment is fully determined by its ExperimentParams (run_experiment
// is deterministic in the seed, which the params carry), so its result can
// be cached under the SHA-256 of the encoded params — the cache key of
// runtime/serialize.hpp. The wire version is part of the encoding, so a
// format bump changes every key and stale entries are simply never found.
//
// The way in is CampaignBuilder::cache(...), the cache-first path: Campaign
// looks every experiment up before running, executes only the misses
// through the runner, stores them, and emits hits and fresh results
// interleaved in index order. Sinks observe a sequence byte-identical to an
// uncached serial run; a fully warm cache performs zero run_experiment
// calls.
//
// Storage is append-only *segment* files (`*.seg`) of checksummed records:
// magic, the 32-byte binary key, a u32 payload length, a 64-bit checksum
// over key, length and payload, then the encoded result. An in-memory index
// maps each key to its record. The constructor rebuilds it by reading each
// record's fixed header (one pread per record, no payload read and no
// checksum; 0.6–1.3 µs per record with the index build on a 4-vCPU ext4
// host) and ends a segment's scan at the first header that does not fit or
// has a bad magic: a torn tail. The index costs about 75 bytes of memory per
// stored entry (72–78 measured at 650 and 10,000 entries). A lookup reads
// the record, checks the checksum, then decodes.
//
// store() is one pwrite and does not sync. The durability point is sync():
// an fdatasync of every segment holding this cache's unsynced records, plus,
// once, every segment of another writer that the constructor indexed. The
// campaign journal (campaign/journal.hpp) calls sync() before it writes each
// group of IndexDone records, so a journaled key — fresh or a hit — always
// has durable bytes behind it, and a group of records shares one fdatasync.
// Without a journal nothing is synced: a power loss can lose the latest
// records, and those experiments simply re-run.
//
// A failed sync is final: it throws CacheError, and so does every later
// sync() of this cache. Linux reports a writeback error once and then marks
// the failed pages clean, so a retried fdatasync can succeed over records
// that never reached the disk; a journal that retried its group commit (its
// abort-path flush, its destructor) would then journal them.
//
// Writers never share a segment. A cache appends to a segment it indexed
// only while it holds an exclusive flock on it and the segment still ends
// where its scan ended; otherwise it creates a new one. So sequential
// campaigns share one segment, concurrent writers — threads with their own
// ResultCache, processes, campaigns sharded across hosts onto one shared
// directory — get one each, and a segment is never truncated or rewritten
// except for retire markers (below). The cache directory is fsync'd when
// this cache creates a segment, and once before it first appends to one it
// did not create (whose creator may have died before fsyncing it), so a
// segment's name is durable before any record in it is journaled. Store
// failures (ENOSPC, a dead disk) throw CacheError, a distinct type, so
// campaigns can tell "the store is failing" from a config mistake; the
// writer then moves to a new segment unless nothing of the record landed.
// Segments this process may not write (another user's, a read-only mount)
// are opened read-only: their keys are served, and nothing is appended to
// them.
//
// A record that fails its checksum or no longer decodes is *retired* at
// lookup: its magic is overwritten with a marker that later scans skip, and
// it is counted in Stats::corrupt. The entry re-runs once (the store() after
// the miss appends a fresh record) instead of failing every later campaign,
// and a rotting store is visible in the stats. In a read-only segment the
// retirement is kept in memory only.
//
// The cache never deletes an entry it stored: a hit found at study start
// and a journaled key both stay servable for the whole campaign. To
// reclaim space (disk and index memory), delete the directory between
// campaigns; a missing entry is simply re-run. Corrupting an entry
// *during* a campaign that already classified it as a hit fails that study
// loudly (a deterministic re-run repairs it). `.result` files of older
// builds are neither read nor deleted; their keys re-run once.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/experiment.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

/// A cache store or sync failed at the filesystem layer (ENOSPC, EIO, a
/// vanished directory). Distinct from ConfigError: the configuration is
/// fine, the storage is not.
class CacheError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache directory and indexes its
  /// segments.
  explicit ResultCache(std::filesystem::path dir);
  /// Closes the segments (releasing any flock) without syncing.
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Index probe (no read or decode). Records a miss when absent; present
  /// keys are counted by the lookup() that serves them — the cache-first
  /// campaign pairs one probe per experiment with one lookup per served
  /// hit, so Stats reflect what actually happened.
  bool contains(const std::string& key);

  /// nullopt when absent or damaged. Counts a hit or a miss; a damaged
  /// record is retired and counted in Stats::corrupt (see the header
  /// comment).
  std::optional<runtime::ExperimentResult> lookup(const std::string& key);

  /// Append the result for `key` (a later record for a key supersedes an
  /// earlier one). Not durable until sync(). Throws CacheError when the
  /// bytes cannot be written (ENOSPC, a file-size limit, ...); the key is
  /// then not indexed.
  void store(const std::string& key, const runtime::ExperimentResult& result);

  /// Make every record this cache stored, and every record it indexed at
  /// open, durable. Throws CacheError when an fdatasync fails, and from
  /// then on at every call (see the header comment).
  void sync();

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t stores{0};
    /// Records found damaged and retired at lookup.
    std::uint64_t corrupt{0};
    /// Segment fdatasyncs issued by sync(), other writers' segments
    /// included.
    std::uint64_t syncs{0};
  };
  /// A snapshot, by value: one cache may be shared by several campaigns on
  /// different threads, so counters are mutated concurrently and a
  /// reference would be a data race to read.
  Stats stats() const LOKI_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return stats_;
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  using Key = std::array<std::uint8_t, 32>;
  struct KeyHash {
    // The key is a SHA-256 digest: any 8 of its bytes are uniform.
    std::size_t operator()(const Key& key) const noexcept {
      std::size_t h = 0;
      std::memcpy(&h, key.data(), sizeof h);
      return h;
    }
  };
  struct Location {
    std::uint32_t segment{0};  // into segments_
    std::uint32_t length{0};   // payload bytes
    std::uint64_t offset{0};   // of the record header
    bool operator==(const Location&) const = default;
  };
  struct Segment {
    int fd{-1};
    /// Where the scanned prefix ends: the next record's offset.
    std::uint64_t end{0};
    /// Opened read-write; a read-only segment is never appended to.
    bool writable{false};
    /// Holds records (or a retire marker) that sync() has not covered.
    bool dirty{false};
  };

  void index_segment(const std::filesystem::path& path) LOKI_REQUIRES(mu_);
  /// The segment this cache appends to: adopted or created on first use.
  Segment& writer_segment() LOKI_REQUIRES(mu_);
  /// fsync the cache directory; throws CacheError.
  void sync_dir() LOKI_REQUIRES(mu_);
  void retire(const Key& key, const Location& at, bool on_disk)
      LOKI_EXCLUDES(mu_);

  std::filesystem::path dir_;
  /// Guards the index, the segment table and the counters. Appends, syncs
  /// and retire markers happen under it; lookups read, verify and decode
  /// outside it (a segment's fd stays open for the cache's lifetime, and an
  /// indexed record is never rewritten except by its own retirement).
  mutable util::Mutex mu_;
  std::unordered_map<Key, Location, KeyHash> index_ LOKI_GUARDED_BY(mu_);
  std::vector<Segment> segments_ LOKI_GUARDED_BY(mu_);
  static constexpr std::size_t kNoWriter = static_cast<std::size_t>(-1);
  /// Index into segments_ of the writer segment; kNoWriter until the first
  /// store, and again after a failed one.
  std::size_t writer_ LOKI_GUARDED_BY(mu_) = kNoWriter;
  /// The directory was fsync'd after every segment this cache indexed or
  /// created so far.
  bool dir_synced_ LOKI_GUARDED_BY(mu_) = false;
  /// The first failed sync's message; once set, every sync() throws it.
  std::string sync_error_ LOKI_GUARDED_BY(mu_);
  Stats stats_ LOKI_GUARDED_BY(mu_);
};

}  // namespace loki::campaign
