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
// Storage is one file per key (`<key>.result`, the encoded result),
// published durably — written to a temp name, fsync'd, then renamed
// (util/atomic_file.hpp) — so concurrent writers, including campaigns
// sharded across hosts onto one shared directory, are safe AND a crash
// right after store() returns can never leave a torn or lost entry: the
// campaign journal (campaign/journal.hpp) depends on that ordering.
// Store failures (ENOSPC, a dead disk) throw CacheError, a distinct type,
// so campaigns can tell "the store is failing" from a config mistake.
//
// A file that exists but no longer decodes is *quarantined* at lookup —
// renamed to `<key>.corrupt` and counted in Stats::corrupt — instead of
// being silently treated as a miss forever: the entry re-runs once (the
// store() after the miss publishes a fresh file), and a rotting store is
// visible in the stats instead of quietly recomputing every campaign.
//
// Eviction/GC: the cache keeps a generation-stamped index (one monotonic
// counter, bumped per touch; persisted periodically to `cache.index` via
// the same atomic-write path). When CacheOptions bounds the store by bytes
// or entry count, store() evicts lowest-generation entries first until the
// budget holds. The index file is an accounting accelerator, not a source
// of truth — a stale or missing index is rebuilt by scanning the directory,
// and correctness always rests on the entry files themselves.
//
// One caveat for the cache-first path: hit/miss classification happens at
// study start, so an entry deleted, corrupted, or evicted *between* that
// probe and its emit turn fails the study loudly (a deterministic re-run
// repairs it) — don't prune a shared cache directory mid-campaign, and
// size GC'd caches generously enough to hold the campaign in flight.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "runtime/experiment.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

/// A cache store/GC step failed at the filesystem layer (ENOSPC, EIO,
/// a vanished directory). Distinct from ConfigError: the configuration is
/// fine, the storage is not.
class CacheError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Store budget; 0 means unbounded (the default — historical behaviour).
struct CacheOptions {
  /// Evict until the sum of entry file sizes fits under this many bytes.
  std::uint64_t max_bytes{0};
  /// Evict until at most this many entries remain.
  std::uint64_t max_entries{0};
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache directory and loads (or rebuilds
  /// by directory scan) the generation index.
  explicit ResultCache(std::filesystem::path dir, CacheOptions options = {});
  /// Persists the index (best-effort).
  ~ResultCache();

  /// Cheap existence probe (no read or decode). Records a miss when
  /// absent; present keys are counted by the lookup() that serves them —
  /// the cache-first campaign pairs one probe per experiment with one
  /// lookup per served hit, so Stats reflect what actually happened.
  bool contains(const std::string& key);

  /// nullopt when absent or undecodable. Counts a hit or a miss; an
  /// undecodable entry is quarantined to `<key>.corrupt` and counted in
  /// Stats::corrupt (see the header comment).
  std::optional<runtime::ExperimentResult> lookup(const std::string& key);

  /// Durably store (or overwrite) the result for `key`: temp file, fsync,
  /// atomic rename. Throws CacheError when the bytes cannot be made
  /// durable (ENOSPC, short write, ...). Triggers GC when the store
  /// exceeds the configured budget.
  void store(const std::string& key, const runtime::ExperimentResult& result);

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t stores{0};
    /// Entries found undecodable and quarantined at lookup.
    std::uint64_t corrupt{0};
    /// Entries evicted by the GC budget.
    std::uint64_t evictions{0};
  };
  /// A snapshot, by value: one cache may be shared by several campaigns on
  /// different threads, so counters are mutated concurrently and a
  /// reference would be a data race to read.
  Stats stats() const LOKI_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return stats_;
  }
  const std::filesystem::path& dir() const { return dir_; }

  /// Persist the generation index to `cache.index` now (atomic write).
  /// Also runs periodically from store() and at destruction; a crash
  /// in between merely costs a directory rescan on next open.
  void flush_index() LOKI_EXCLUDES(mu_);

 private:
  struct Entry {
    std::uint64_t bytes{0};
    std::uint64_t generation{0};
  };

  std::filesystem::path path_of(const std::string& key) const;
  void load_index() LOKI_REQUIRES(mu_);
  void rebuild_index_from_disk() LOKI_REQUIRES(mu_);
  void persist_index() LOKI_REQUIRES(mu_);
  void touch(const std::string& key, std::uint64_t bytes) LOKI_REQUIRES(mu_);
  void gc() LOKI_REQUIRES(mu_);

  std::filesystem::path dir_;
  CacheOptions options_;
  /// Guards counters and the index. Filesystem state needs no lock: writes
  /// publish via fsync + atomic rename, and readers treat torn files as
  /// misses (quarantining them).
  mutable util::Mutex mu_;
  Stats stats_ LOKI_GUARDED_BY(mu_);
  std::map<std::string, Entry> index_ LOKI_GUARDED_BY(mu_);
  std::uint64_t total_bytes_ LOKI_GUARDED_BY(mu_){0};
  std::uint64_t generation_ LOKI_GUARDED_BY(mu_){0};
  std::uint64_t stores_since_persist_ LOKI_GUARDED_BY(mu_){0};
};

}  // namespace loki::campaign
