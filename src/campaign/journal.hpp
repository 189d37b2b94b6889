// Write-ahead campaign journal: the coordinator's crash-safety log.
//
// A journaled campaign records, before every sink emit, that experiment k of
// study s completed with result key K. Combined with the ResultCache's
// durability ordering —
//
//   cache.store(key, result)   (appended to a cache segment)
//   journal IndexDone{s, k, key}   (buffered; each group commit first
//                                   calls cache.sync(), an fdatasync, then
//                                   writes and fsyncs the group)
//   emit(k, result)            (sinks observe it)
//
// — a crash at ANY point leaves the journal a contiguous prefix of the emit
// order whose every entry has a durable cache record: the sync that makes a
// group's results durable runs before the group's records are written.
// Campaign::run's resume path replays that prefix straight from the cache
// (no re-execution, no re-validation) and runs only the tail; because tail
// indices that completed before the crash are still cache hits, the
// resumed sink sequence is byte-identical to an uninterrupted run and no
// journaled index ever re-executes.
//
// Group commit: IndexDone records buffer and are written+fsync'd every
// `Options::group_records` records (and at every study/campaign boundary,
// flush(), or destruction), so the hot path pays one cache fdatasync and
// one journal fsync per group instead of per experiment. Buffered records
// lost in a crash only shrink the journaled prefix; the affected indices
// are re-served from the cache as ordinary tail hits, or re-run if a power
// loss took their unsynced records too.
//
// The file format lives in journal.cpp and nowhere else: a versioned
// header, then checksummed records. A torn tail record — the signature of a
// mid-write crash — fails its checksum and is treated as unwritten; a
// resume cuts it off before appending. load() parses and structurally
// validates the readable prefix; digest validation against the resumed
// campaign's studies happens in Campaign::run, which knows the studies.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/experiment.hpp"

namespace loki::campaign {

class ResultCache;

/// Everything a resume needs from an existing journal: per-study progress
/// (the contiguous journaled prefix of each study's emit order) plus the
/// campaign-level identity the writer recorded.
struct JournalState {
  std::string runner_spec;
  std::uint64_t seed{0};
  std::uint32_t studies{0};
  /// False when the file holds no (complete) CampaignBegin — a coordinator
  /// killed at birth. Resume treats such a journal as a fresh start.
  bool campaign_begun{false};
  bool campaign_done{false};
  /// True when the file ended in a torn/corrupt record (discarded) — the
  /// expected shape of a SIGKILL mid-append.
  bool truncated_tail{false};
  /// Length of the readable prefix: the header plus every intact record.
  /// append_to cuts a torn file back to it.
  std::uint64_t intact_bytes{0};

  struct StudyProgress {
    std::string name;
    std::string digest;
    std::uint32_t experiments{0};
    /// Result keys of the journaled prefix, in emit order: entry k is
    /// experiment k's cache key. Always contiguous from 0 (validated).
    std::vector<std::string> done_keys;
    bool ended{false};
  };
  /// One entry per StudyBegin seen, in campaign order.
  std::vector<StudyProgress> progress;
};

class CampaignJournal {
 public:
  struct Options {
    /// IndexDone records per group commit. 1 = fsync every record (the
    /// crash-resume tests use this to place kill points exactly).
    // (No default member initializer: these Options are a default argument
    // inside the enclosing class, where an NSDMI is not yet usable.)
    int group_records;
    Options() : group_records(32) {}
    explicit Options(int group) : group_records(group) {}
  };

  /// Start a fresh journal at `path` (truncating any previous file) and
  /// write the header. Throws ConfigError when the file cannot be created.
  /// `cache`, when set, is the cache whose keys the IndexDone records name:
  /// every flush() syncs it before writing (see the header comment). It
  /// must outlive the journal.
  static CampaignJournal create(const std::filesystem::path& path,
                                Options options = Options(),
                                ResultCache* cache = nullptr);

  /// Open an existing journal for appending (the resume case). `state` is
  /// what load() read from it (and the caller validated): a torn tail is
  /// cut back to state.intact_bytes, durably, before anything is appended,
  /// so the next load() sees the new records. `cache` as for create().
  static CampaignJournal append_to(const std::filesystem::path& path,
                                   const JournalState& state,
                                   Options options = Options(),
                                   ResultCache* cache = nullptr);

  /// Parse the readable prefix of the journal at `path`. Structural
  /// validation only: header, record order, contiguous per-study indices.
  /// Throws ConfigError on a missing/garbled file or an order violation; a
  /// torn tail is tolerated (truncated_tail).
  static JournalState load(const std::filesystem::path& path);

  CampaignJournal(CampaignJournal&& other) noexcept;
  CampaignJournal& operator=(CampaignJournal&&) = delete;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;
  /// Flushes buffered records (best-effort) and closes the fd.
  ~CampaignJournal();

  void campaign_begin(const std::string& runner_spec, std::uint64_t seed,
                      std::uint32_t studies);
  void study_begin(std::uint32_t study, const std::string& name,
                   const std::string& digest, std::uint32_t experiments);
  /// Buffered (group commit); see the header comment for the safety story.
  void index_done(std::uint32_t study, std::uint32_t index,
                  const std::string& result_key);
  void study_end(std::uint32_t study);
  void campaign_end();

  /// Sync the cache, then write and fsync everything buffered. Called
  /// automatically by every non-IndexDone record, at group boundaries, and
  /// at destruction. When the cache's sync throws CacheError, nothing is
  /// written, then or ever after: a cache whose sync failed fails every
  /// later one, so neither the campaign's abort-path flush nor the
  /// destructor's can journal the group whose results did not reach disk.
  void flush();

  const std::filesystem::path& path() const { return path_; }

 private:
  CampaignJournal(int fd, std::filesystem::path path, Options options,
                  ResultCache* cache);

  int fd_{-1};
  std::filesystem::path path_;
  Options options_;
  ResultCache* cache_{nullptr};
  std::vector<std::uint8_t> pending_;
  int pending_records_{0};
};

/// Content digest binding a study's identity for resume validation: sha256
/// over the study name, the experiment count, and experiment 0's cache key
/// (which already hashes the full encoded params, wire version included).
/// O(1) in the study size — resuming a million-experiment campaign must not
/// re-encode a million param sets just to check it is the same campaign.
std::string study_digest(const runtime::StudyParams& study);

}  // namespace loki::campaign
