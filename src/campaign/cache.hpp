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
// The cache never deletes an entry it stored: a hit found at study start
// and a journaled key both stay servable for the whole campaign. To
// reclaim space, delete the directory (or some of its `.result` files)
// between campaigns; a missing entry is simply re-run. Deleting or
// corrupting an entry *during* a campaign that already classified it as a
// hit fails that study loudly (a deterministic re-run repairs it).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "runtime/experiment.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

/// A cache store failed at the filesystem layer (ENOSPC, EIO, a vanished
/// directory). Distinct from ConfigError: the configuration is fine, the
/// storage is not.
class CacheError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache directory.
  explicit ResultCache(std::filesystem::path dir);

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
  /// durable (ENOSPC, short write, ...).
  void store(const std::string& key, const runtime::ExperimentResult& result);

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t stores{0};
    /// Entries found undecodable and quarantined at lookup.
    std::uint64_t corrupt{0};
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
  std::filesystem::path path_of(const std::string& key) const;

  std::filesystem::path dir_;
  /// Guards the counters. Filesystem state needs no lock: writes publish
  /// via fsync + atomic rename, and readers treat torn files as misses
  /// (quarantining them).
  mutable util::Mutex mu_;
  Stats stats_ LOKI_GUARDED_BY(mu_);
};

}  // namespace loki::campaign
