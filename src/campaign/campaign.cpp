#include "campaign/campaign.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <set>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/journal.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

/// Check one journaled study against the campaign it is being resumed into.
/// Name, experiment count, and content digest must all agree — a journal
/// from a different campaign (or the same campaign with edited studies)
/// must fail loudly, not silently replay the wrong results.
void validate_resumed_study(const JournalState::StudyProgress& journaled,
                            const runtime::StudyParams& study,
                            std::size_t ordinal) {
  const auto mismatch = [&](const std::string& what, const std::string& want,
                            const std::string& got) {
    throw ConfigError("campaign resume: journaled study " +
                      std::to_string(ordinal) + " " + what + " mismatch: journal has " +
                      got + ", campaign has " + want +
                      " — this journal belongs to a different campaign");
  };
  if (journaled.name != study.name)
    mismatch("name", "'" + study.name + "'", "'" + journaled.name + "'");
  if (journaled.experiments !=
      static_cast<std::uint32_t>(study.experiments))
    mismatch("experiment count", std::to_string(study.experiments),
             std::to_string(journaled.experiments));
  const std::string digest = study_digest(study);
  if (journaled.digest != digest)
    mismatch("digest", digest, journaled.digest);
}

/// Campaign::run's one delivery cursor. It hands the runner the plan one
/// study at a time (next), takes the runner's results (emit), and delivers
/// everything in serial order: journal replay, cache hits, fresh results,
/// the StudyBegin / IndexDone / StudyEnd records, on_study_begin and
/// on_study_done. After every pull and every fresh result it advances as
/// far as it can without a runner result, so hits stream out as soon as
/// everything before them is delivered; it stops at the first planned index
/// the runner has not emitted yet, or at a study whose plan is not pulled.
///
/// Cache-first probing happens in next(), when the runner first asks for a
/// study: one generator call per index, on the runner's calling thread
/// (the Runner contract), so a generator never races a runner's own use of
/// it. Memory stays O(keys): each hit is read and emitted at its turn.
///
/// When `journal` is set, every index is journaled (IndexDone, write-ahead
/// of its emit); for fresh results this sits *after* the durable cache
/// store, the ordering the whole resume guarantee rests on.
class Delivery {
 public:
  Delivery(const std::vector<runtime::StudyParams>& studies,
           ResultCache* cache, CampaignJournal* journal,
           const JournalState& state,
           const std::vector<std::shared_ptr<ResultSink>>& sinks,
           Campaign::Summary& summary)
      : studies_(studies),
        cache_(cache),
        journal_(journal),
        state_(state),
        sinks_(sinks),
        summary_(summary) {}

  /// The runner's NextFn: probe the next study, deliver what that unblocks,
  /// and hand over its misses. A probe failure (a generator or a validation
  /// error on a cached index) ends the plan; finish() raises it at its
  /// serial position, once everything before the study is delivered.
  std::optional<StudyPlan> next() {
    if (pulled_ == studies_.size() || probe_error_ != nullptr)
      return std::nullopt;
    try {
      plans_.push_back(probe(pulled_));
    } catch (...) {
      probe_error_ = std::current_exception();
      return std::nullopt;
    }
    StudyPlan plan{static_cast<int>(pulled_++), plans_.back().runs};
    advance();
    return plan;
  }

  /// The runner's EmitFn: a fresh result for the planned index the cursor
  /// rests on.
  void emit(int study, int index, runtime::ExperimentResult&& result) {
    guarded([&] {
      if (study_ >= pulled_ || static_cast<std::size_t>(study) != study_ ||
          index != index_ || run_ >= plans_[study_].runs.size() ||
          plans_[study_].runs[run_].lo > index)
        throw LogicError("runner emitted study " + std::to_string(study) +
                         " index " + std::to_string(index) +
                         " out of plan order");
      ++index_;
      if (cache_ != nullptr) {
        const std::string& key =
            plans_[study_].keys[static_cast<std::size_t>(index)];
        // Ordering contract: durable store (fsync + rename inside), then
        // the journal record, then the sinks. See campaign/journal.hpp.
        cache_->store(key, result);
        journal_index(index, key);
      }
      deliver(index, std::move(result));
    });
    advance();
  }

  /// Deliver everything that needs no further runner result.
  void advance() {
    guarded([&] {
      while (study_ < studies_.size()) {
        if (!begun_) begin_study();
        if (study_ >= pulled_) return;
        const int n = studies_[study_].experiments;
        PulledStudy& plan = plans_[study_];
        while (index_ < n) {
          if (index_ < plan.replay_from) {
            replay();
            continue;
          }
          while (run_ < plan.runs.size() && plan.runs[run_].hi <= index_)
            ++run_;
          if (run_ < plan.runs.size() && plan.runs[run_].lo <= index_)
            return;  // a planned index: the runner's to emit
          deliver_hit();
        }
        end_study();
      }
    });
  }

  /// After the runner returned: deliver the rest, then raise a deferred
  /// probe failure, or a runner that skipped part of its plan.
  void finish(const Runner& runner) {
    advance();
    if (probe_error_ != nullptr) std::rethrow_exception(probe_error_);
    if (study_ != studies_.size())
      throw LogicError("runner '" + runner.name() +
                       "' returned before executing its whole plan");
  }

  /// True once a delivery of our own (a sink, the cache, the journal)
  /// threw: the serial prefix ends there, and nothing more is delivered.
  bool failed() const { return failed_; }

 private:
  /// One pulled study: content keys (cache-first only), the journaled
  /// prefix to replay, and the misses handed to the runner.
  struct PulledStudy {
    std::vector<std::string> keys;
    int replay_from{0};
    std::vector<IndexRun> runs;
  };

  template <class F>
  void guarded(F&& body) {
    try {
      body();
    } catch (...) {
      failed_ = true;
      throw;
    }
  }

  const JournalState::StudyProgress* journaled(std::size_t ordinal) const {
    return ordinal < state_.progress.size() ? &state_.progress[ordinal]
                                            : nullptr;
  }

  PulledStudy probe(std::size_t ordinal) const {
    const runtime::StudyParams& study = studies_[ordinal];
    const int n = study.experiments;
    PulledStudy plan;
    if (const JournalState::StudyProgress* j = journaled(ordinal))
      plan.replay_from = static_cast<int>(j->done_keys.size());
    if (cache_ == nullptr) {
      if (plan.replay_from < n) plan.runs.push_back({plan.replay_from, n});
      return plan;
    }
    plan.keys.resize(static_cast<std::size_t>(n));
    for (int k = plan.replay_from; k < n; ++k) {
      const runtime::ExperimentParams params = study.make_params(k);
      std::string& key = plan.keys[static_cast<std::size_t>(k)];
      key = runtime::experiment_cache_key(params);
      if (cache_->contains(key)) {
        // Hits skip run_experiment, not validation; a config mistake on a
        // cached index surfaces before anything of its study runs.
        validate_experiment_params(params, experiment_context(study, k));
      } else if (!plan.runs.empty() && plan.runs.back().hi == k) {
        ++plan.runs.back().hi;
      } else {
        plan.runs.push_back({k, k + 1});
      }
    }
    return plan;
  }

  void begin_study() {
    const runtime::StudyParams& study = studies_[study_];
    begun_ = true;
    info_ = StudyInfo{study.name, static_cast<int>(study_), study.experiments};
    for (const auto& sink : sinks_) sink->on_study_begin(info_);
    if (journal_ != nullptr && journaled(study_) == nullptr)
      journal_->study_begin(static_cast<std::uint32_t>(study_), study.name,
                            study_digest(study),
                            static_cast<std::uint32_t>(study.experiments));
  }

  void end_study() {
    const JournalState::StudyProgress* j = journaled(study_);
    if (journal_ != nullptr && !(j != nullptr && j->ended))
      journal_->study_end(static_cast<std::uint32_t>(study_));
    plans_[study_] = PulledStudy{};  // its keys are spent
    ++study_;
    index_ = 0;
    run_ = 0;
    begun_ = false;
    for (const auto& sink : sinks_) sink->on_study_done(info_);
  }

  /// Replay one journaled index straight from the cache by its journaled
  /// key: no probing, no re-validation, no re-journaling — the record is
  /// already durable. The entry MUST exist: IndexDone is only ever written
  /// after the durable store, so a miss means the cache was pruned behind
  /// the journal's back.
  void replay() {
    // Advance first: if the read or a sink throws here, the index counts
    // as delivered and is never re-emitted by a later advance.
    const int k = index_++;
    const std::string& key =
        journaled(study_)->done_keys[static_cast<std::size_t>(k)];
    std::optional<runtime::ExperimentResult> result = cache_->lookup(key);
    if (!result.has_value())
      throw std::runtime_error(
          "campaign resume: journaled " +
          experiment_context(studies_[study_], k) +
          " is missing from the cache (key " + key +
          "); journal and cache have diverged — delete the journal to "
          "start over");
    ++summary_.replayed;
    deliver(k, std::move(*result));
  }

  void deliver_hit() {
    const int k = index_++;
    const std::string& key = plans_[study_].keys[static_cast<std::size_t>(k)];
    std::optional<runtime::ExperimentResult> result = cache_->lookup(key);
    if (!result.has_value())
      throw std::runtime_error(
          "ResultCache: entry for " + experiment_context(studies_[study_], k) +
          " disappeared or went undecodable mid-study (key " + key +
          "): it was deleted or corrupted behind the campaign's back; "
          "re-run the campaign");
    ++summary_.cache_hits;
    journal_index(k, key);
    deliver(k, std::move(*result));
  }

  /// Write-ahead emit: the journal learns about an index before any sink
  /// does, so a crash mid-emit resumes by re-emitting it from the cache.
  void journal_index(int k, const std::string& key) {
    if (journal_ != nullptr)
      journal_->index_done(static_cast<std::uint32_t>(study_),
                           static_cast<std::uint32_t>(k), key);
  }

  void deliver(int k, runtime::ExperimentResult&& result) {
    ++summary_.experiments;
    if (result.completed) ++summary_.completed;
    if (result.timed_out) ++summary_.timed_out;
    for (const auto& sink : sinks_) sink->on_experiment(info_, k, result);
  }

  const std::vector<runtime::StudyParams>& studies_;
  ResultCache* cache_;
  CampaignJournal* journal_;
  const JournalState& state_;
  const std::vector<std::shared_ptr<ResultSink>>& sinks_;
  Campaign::Summary& summary_;

  std::vector<PulledStudy> plans_;  // one per pulled study, by ordinal
  std::size_t pulled_{0};
  std::exception_ptr probe_error_;
  // The cursor: the next undelivered index of study_, the first of its
  // runs that may still hold it, and whether study_ has begun.
  std::size_t study_{0};
  int index_{0};
  std::size_t run_{0};
  bool begun_{false};
  StudyInfo info_;
  bool failed_{false};
};

}  // namespace

// --- Campaign ----------------------------------------------------------------

Campaign::Summary Campaign::run() {
  if (ran_)
    throw LogicError(
        "Campaign::run() may only be called once: the sinks have already "
        "accumulated a full campaign; build a fresh Campaign to run again");
  ran_ = true;
  const auto start = std::chrono::steady_clock::now();
  Summary summary;
  summary.studies = static_cast<int>(studies_.size());
  // Telemetry is cumulative on the runner (which may be shared across
  // campaigns); report this campaign's delta.
  const RunnerTelemetry telemetry_before = runner_->telemetry();

  // Journal/resume setup. A resume first loads and validates the existing
  // journal: the campaign must have the same number of studies and each
  // journaled study must match by name, count, and digest. A journal killed
  // before its CampaignBegin made it to disk carries no identity to check —
  // it is recreated as a fresh journal.
  JournalState state;
  std::optional<CampaignJournal> journal;
  if (!journal_path_.empty()) {
    const CampaignJournal::Options jopts(journal_group_);
    bool fresh = !resume_;
    if (resume_) {
      state = CampaignJournal::load(journal_path_);
      if (!state.campaign_begun) {
        fresh = true;  // killed at birth: nothing usable, start over
        state = JournalState{};
      } else {
        if (state.studies != studies_.size())
          throw ConfigError(
              "campaign resume: journal records " +
              std::to_string(state.studies) + " studies, campaign has " +
              std::to_string(studies_.size()) +
              " — this journal belongs to a different campaign");
        for (std::size_t i = 0; i < state.progress.size(); ++i)
          validate_resumed_study(state.progress[i], studies_[i], i);
      }
    }
    if (fresh) {
      journal.emplace(CampaignJournal::create(journal_path_, jopts));
      journal->campaign_begin(runner_->name(), journal_seed_,
                              static_cast<std::uint32_t>(studies_.size()));
    } else {
      journal.emplace(CampaignJournal::append_to(journal_path_, state, jopts));
    }
  }
  CampaignJournal* const jptr = journal ? &*journal : nullptr;

  for (const auto& sink : sinks_) sink->on_campaign_begin(summary.studies);

  Delivery delivery(studies_, cache_.get(), jptr, state, sinks_, summary);
  try {
    try {
      runner_->run(
          studies_, [&] { return delivery.next(); },
          [&](int study, int index, runtime::ExperimentResult&& result) {
            delivery.emit(study, index, std::move(result));
          });
    } catch (...) {
      // A failure of our own delivery (a sink, the cache, the journal)
      // already delivered the serial prefix; propagate it untouched. A
      // runner failure comes after every planned index before the failing
      // one was emitted (the Runner contract): deliver the hits below it,
      // then propagate.
      if (!delivery.failed()) delivery.advance();
      throw;
    }
    delivery.finish(*runner_);
  } catch (...) {
    // An aborting campaign (a throwing sink, a lost fleet, a full disk)
    // still flushes its buffered IndexDone records: the maximal journaled
    // prefix is exactly what makes the subsequent resume cheap.
    if (jptr != nullptr) {
      try {
        jptr->flush();
      } catch (...) {
        // The original exception is the story; a failing flush only costs
        // resume some cache hits.
      }
    }
    throw;
  }

  if (jptr != nullptr && !state.campaign_done) jptr->campaign_end();
  for (const auto& sink : sinks_) sink->on_campaign_done();
  const RunnerTelemetry telemetry_after = runner_->telemetry();
  summary.requeue_events =
      telemetry_after.requeues - telemetry_before.requeues;
  summary.requeued_indices =
      telemetry_after.requeued_indices - telemetry_before.requeued_indices;
  summary.workers_lost =
      telemetry_after.workers_lost - telemetry_before.workers_lost;
  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return summary;
}

// --- StudyBuilder ------------------------------------------------------------

StudyBuilder::StudyBuilder(CampaignBuilder* parent, std::string name)
    : parent_(parent), name_(std::move(name)) {}

StudyBuilder& StudyBuilder::experiments(int n) {
  experiments_ = n;
  return *this;
}

StudyBuilder& StudyBuilder::base(runtime::ExperimentParams params) {
  base_ = std::move(params);
  return *this;
}

StudyBuilder& StudyBuilder::generator(
    std::function<runtime::ExperimentParams(int)> gen) {
  generator_ = std::move(gen);
  return *this;
}

StudyBuilder& StudyBuilder::host(runtime::HostConfig host) {
  hosts_.push_back(std::move(host));
  return *this;
}

StudyBuilder& StudyBuilder::host(const std::string& name) {
  runtime::HostConfig hc;
  hc.name = name;
  return host(std::move(hc));
}

StudyBuilder& StudyBuilder::node(runtime::NodeConfig node) {
  nodes_.push_back(std::move(node));
  return *this;
}

StudyBuilder& StudyBuilder::fault(const std::string& nickname,
                                  const std::string& fault_spec_text) {
  // Parse immediately: a syntax error points at the composition site.
  faults_.emplace_back(
      nickname, spec::parse_fault_spec(fault_spec_text, "study '" + name_ + "'"));
  return *this;
}

StudyBuilder& StudyBuilder::tweak(
    std::function<void(runtime::ExperimentParams&, int)> fn) {
  if (!fn) throw ConfigError("study '" + name_ + "': null tweak");
  tweaks_.push_back(std::move(fn));
  return *this;
}

runtime::StudyParams StudyBuilder::to_study() const {
  if (!generator_ && !base_ && nodes_.empty())
    throw ConfigError("study '" + name_ +
                      "': no base params, generator, or nodes composed");

  runtime::StudyParams study;
  study.name = name_;
  study.experiments = experiments_;
  study.make_params = [name = name_, base = base_, gen = generator_,
                       hosts = hosts_, nodes = nodes_, faults = faults_,
                       tweaks = tweaks_](int k) {
    runtime::ExperimentParams p;
    if (gen) {
      p = gen(k);
    } else if (base.has_value()) {
      p = *base;
      p.seed = base->seed + static_cast<std::uint64_t>(k);
    } else {
      p.seed = 1 + static_cast<std::uint64_t>(k);
    }
    for (const runtime::HostConfig& h : hosts) p.hosts.push_back(h);
    for (const runtime::NodeConfig& n : nodes) p.nodes.push_back(n);
    for (const auto& [nickname, fault_spec] : faults) {
      bool found = false;
      for (runtime::NodeConfig& n : p.nodes) {
        if (n.nickname == nickname) {
          n.fault_spec = fault_spec;
          found = true;
          break;
        }
      }
      if (!found)
        throw ConfigError("study '" + name + "': fault spec targets unknown node '" +
                          nickname + "'");
    }
    for (const auto& tweak : tweaks) tweak(p, k);
    return p;
  };
  return study;
}

// --- CampaignBuilder ---------------------------------------------------------

StudyBuilder& CampaignBuilder::study(const std::string& name) {
  Entry entry;
  entry.builder = std::shared_ptr<StudyBuilder>(new StudyBuilder(this, name));
  entries_.push_back(std::move(entry));
  return *entries_.back().builder;
}

CampaignBuilder& CampaignBuilder::add(runtime::StudyParams study) {
  Entry entry;
  entry.prebuilt = std::move(study);
  entries_.push_back(std::move(entry));
  return *this;
}

CampaignBuilder& CampaignBuilder::runner(std::shared_ptr<Runner> runner) {
  if (!runner) throw ConfigError("null runner");
  runner_ = std::move(runner);
  return *this;
}

CampaignBuilder& CampaignBuilder::sink(std::shared_ptr<ResultSink> sink) {
  if (!sink) throw ConfigError("null sink");
  sinks_.push_back(std::move(sink));
  return *this;
}

CampaignBuilder& CampaignBuilder::cache(std::shared_ptr<ResultCache> cache) {
  if (!cache) throw ConfigError("null cache");
  cache_ = std::move(cache);
  return *this;
}

CampaignBuilder& CampaignBuilder::cache_dir(const std::string& dir) {
  return cache(std::make_shared<ResultCache>(dir));
}

CampaignBuilder& CampaignBuilder::journal(const std::string& path,
                                          std::uint64_t seed) {
  if (path.empty()) throw ConfigError("journal: empty path");
  journal_path_ = path;
  journal_seed_ = seed;
  resume_ = false;
  return *this;
}

CampaignBuilder& CampaignBuilder::resume(const std::string& path) {
  if (path.empty()) throw ConfigError("resume: empty journal path");
  journal_path_ = path;
  resume_ = true;
  return *this;
}

CampaignBuilder& CampaignBuilder::journal_group(int records) {
  if (records < 1)
    throw ConfigError("journal_group: need at least 1 record per commit, got " +
                      std::to_string(records));
  journal_group_ = records;
  return *this;
}

Campaign CampaignBuilder::build() const {
  Campaign campaign;
  std::set<std::string> names;
  for (const Entry& entry : entries_) {
    runtime::StudyParams study =
        entry.prebuilt.has_value() ? *entry.prebuilt : entry.builder->to_study();
    validate_study_params(study);
    if (!names.insert(study.name).second)
      throw ConfigError("duplicate study name '" + study.name + "'");
    // Probe experiment 0 so composition mistakes (duplicate nicknames,
    // unknown hosts, spec-name mismatches...) fail at build time.
    validate_experiment_params(study.make_params(0),
                               "study '" + study.name + "'");
    // With a cache attached every experiment must be encodable for its
    // content key; probe that too, so a node without a wire identity
    // (app_name) fails here and not mid-campaign.
    if (cache_) runtime::experiment_cache_key(study.make_params(0));
    campaign.studies_.push_back(std::move(study));
  }
  // The journal's whole replay guarantee rests on the cache's durable store
  // ordering: no cache, no journal.
  if (!journal_path_.empty() && !cache_)
    throw ConfigError(
        "a journaled campaign requires a result cache (cache_dir/cache): "
        "resume replays journaled indices from the cache");
  campaign.runner_ = runner_ ? runner_ : std::make_shared<SerialRunner>();
  campaign.cache_ = cache_;
  campaign.sinks_ = sinks_;
  campaign.journal_path_ = journal_path_;
  campaign.resume_ = resume_;
  campaign.journal_group_ = journal_group_;
  campaign.journal_seed_ = journal_seed_;
  return campaign;
}

// --- one-shot experiments ----------------------------------------------------

runtime::ExperimentResult run_single(const runtime::ExperimentParams& params,
                                     const std::string& context) {
  validate_experiment_params(params, context);
  return runtime::run_experiment(params);
}

}  // namespace loki::campaign
