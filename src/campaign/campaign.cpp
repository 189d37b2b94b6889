#include "campaign/campaign.hpp"

#include <chrono>
#include <optional>
#include <set>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/journal.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

/// The miss sub-study reports errors with *its* compact indices; append the
/// original coordinates so a maintainer can reproduce the right experiment.
/// Worded as "first unemitted" because a runner-infrastructure failure
/// (fork exhaustion, a dead pipe) also lands here without any experiment
/// of its own. Preserves the type for the campaign's exception families.
[[noreturn]] void rethrow_with_original_index(
    const runtime::StudyParams& study, int original_index) {
  const auto annotate = [&](const char* what) {
    return std::string(what) + " [cache-first: first unemitted miss was " +
           experiment_context(study, original_index) + "]";
  };
  try {
    throw;
  } catch (const ConfigError& e) {
    throw ConfigError(annotate(e.what()));
  } catch (const LogicError& e) {
    throw LogicError(annotate(e.what()));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(annotate(e.what()));
  }
  // Anything else propagates unannotated via the rethrow above.
}

/// Cache-first execution of one study: serve hits, run misses as a compact
/// sub-study through the real runner, and interleave both streams so emit
/// observes exactly the serial sequence — including the failure-prefix
/// semantics: if (sub-)experiment k fails, every completed index below k
/// (cached or fresh) is emitted before the exception propagates.
///
/// Memory stays O(1) results: only the 64-char keys and the miss list are
/// materialized up front; each hit is generated, validated, read, and
/// emitted lazily at its turn (generators are deterministic per index, the
/// standard campaign contract).
///
/// `start` skips indices below it entirely (no probe, no validation) — the
/// resume path replays those from the journal before calling in here. When
/// `journal` is set, every index is journaled (IndexDone, write-ahead of
/// its emit); for fresh results this sits *after* the durable cache store,
/// the ordering the whole resume guarantee rests on.
void run_study_cache_first(Runner& runner, ResultCache& cache,
                           const runtime::StudyParams& study,
                           const EmitFn& emit, int& cache_hits, int start,
                           CampaignJournal* journal, std::uint32_t ordinal) {
  const int n = study.experiments;
  if (n <= 0 || start >= n) return;
  std::vector<std::string> keys(static_cast<std::size_t>(n));
  std::vector<int> missing;
  for (int k = start; k < n; ++k) {
    // One generator call per index, all on this thread — emit_cached_below
    // runs inside the runner's emit callback, where another make_params
    // call would race the runner's own (gen_mu-serialized) generator use.
    runtime::ExperimentParams params = study.make_params(k);
    keys[static_cast<std::size_t>(k)] = runtime::experiment_cache_key(params);
    if (cache.contains(keys[static_cast<std::size_t>(k)])) {
      // Hits skip run_experiment, not validation; a config mistake on a
      // cached index surfaces here, before anything runs, rather than at
      // its serial emit position.
      validate_experiment_params(params, experiment_context(study, k));
    } else {
      missing.push_back(k);  // the runner validates misses itself
    }
  }

  // Write-ahead emit: the journal learns about an index before any sink
  // does, so a crash mid-emit resumes by re-emitting it from the cache.
  const auto journal_and_emit = [&](int k, runtime::ExperimentResult&& result) {
    if (journal != nullptr)
      journal->index_done(ordinal, static_cast<std::uint32_t>(k),
                          keys[static_cast<std::size_t>(k)]);
    emit(k, std::move(result));
  };

  int next_emit = start;
  const auto emit_cached_below = [&](int bound) {
    while (next_emit < bound) {
      // Advance first: if the read or a sink throws here, the index counts
      // as delivered and is never re-emitted by a later flush.
      const int k = next_emit++;
      std::optional<runtime::ExperimentResult> result =
          cache.lookup(keys[static_cast<std::size_t>(k)]);
      if (!result.has_value())
        throw std::runtime_error(
            "ResultCache: entry for " + experiment_context(study, k) +
            " disappeared or went undecodable mid-study (key " +
            keys[static_cast<std::size_t>(k)] +
            "); a concurrent eviction? re-run the campaign");
      ++cache_hits;
      journal_and_emit(k, std::move(*result));
    }
  };

  if (!missing.empty()) {
    runtime::StudyParams sub;
    sub.name = study.name;
    sub.experiments = static_cast<int>(missing.size());
    sub.make_params = [&study, &missing](int j) {
      return study.make_params(missing[static_cast<std::size_t>(j)]);
    };
    int fresh_done = 0;
    bool interleave_failed = false;
    try {
      runner.run_study(sub, [&](int j, runtime::ExperimentResult&& result) {
        const int k = missing[static_cast<std::size_t>(j)];
        try {
          emit_cached_below(k);
          // Ordering contract: durable store (fsync + rename inside), then
          // the journal record, then the sinks. See campaign/journal.hpp.
          cache.store(keys[static_cast<std::size_t>(k)], result);
          journal_and_emit(k, std::move(result));
        } catch (...) {
          interleave_failed = true;
          throw;
        }
        next_emit = k + 1;
        ++fresh_done;
      });
    } catch (...) {
      // A failure of our own interleave (a sink or a cached index) already
      // delivered the serial prefix; propagate it untouched. A runner
      // failure is sub-index fresh_done (the runner contract): cached
      // entries below the failing original index complete the serial
      // prefix, then the error is annotated with its original coordinates.
      if (interleave_failed) throw;
      if (fresh_done < static_cast<int>(missing.size())) {
        const int failing = missing[static_cast<std::size_t>(fresh_done)];
        emit_cached_below(failing);
        rethrow_with_original_index(study, failing);
      }
      throw;
    }
  }
  emit_cached_below(n);
}

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

  try {
    for (std::size_t i = 0; i < studies_.size(); ++i) {
      const runtime::StudyParams& study = studies_[i];
      const StudyInfo info{study.name, static_cast<int>(i), study.experiments};
      for (const auto& sink : sinks_) sink->on_study_begin(info);
      const EmitFn deliver = [&](int k, runtime::ExperimentResult&& result) {
        ++summary.experiments;
        if (result.completed) ++summary.completed;
        if (result.timed_out) ++summary.timed_out;
        for (const auto& sink : sinks_) sink->on_experiment(info, k, result);
      };
      const JournalState::StudyProgress* journaled =
          i < state.progress.size() ? &state.progress[i] : nullptr;
      if (jptr != nullptr && journaled == nullptr)
        jptr->study_begin(static_cast<std::uint32_t>(i), study.name,
                          study_digest(study),
                          static_cast<std::uint32_t>(study.experiments));
      int replay_from = 0;
      if (journaled != nullptr) {
        // Replay the journaled prefix straight from the cache by journaled
        // key: no probing, no re-validation, no re-journaling — these
        // records are already durable. The entries MUST exist: IndexDone is
        // only ever written after the durable store, so a miss here means
        // the cache was pruned behind the journal's back.
        replay_from = static_cast<int>(journaled->done_keys.size());
        for (int k = 0; k < replay_from; ++k) {
          std::optional<runtime::ExperimentResult> result = cache_->lookup(
              journaled->done_keys[static_cast<std::size_t>(k)]);
          if (!result.has_value())
            throw std::runtime_error(
                "campaign resume: journaled " + experiment_context(study, k) +
                " is missing from the cache (key " +
                journaled->done_keys[static_cast<std::size_t>(k)] +
                "); journal and cache have diverged — delete the journal to "
                "start over");
          ++summary.replayed;
          deliver(k, std::move(*result));
        }
      }
      if (cache_)
        run_study_cache_first(*runner_, *cache_, study, deliver,
                              summary.cache_hits, replay_from, jptr,
                              static_cast<std::uint32_t>(i));
      else
        runner_->run_study(study, deliver);
      if (jptr != nullptr && !(journaled != nullptr && journaled->ended))
        jptr->study_end(static_cast<std::uint32_t>(i));
      for (const auto& sink : sinks_) sink->on_study_done(info);
    }
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
