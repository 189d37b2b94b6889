// The unified campaign facade (§2.2): one object that owns the paper's
// whole pipeline — runtime phase, offline clock synchronization, analysis,
// measure — over a set of studies, with pluggable execution (Runner) and
// streaming observers (ResultSink).
//
//   auto measure = std::make_shared<campaign::MeasureSink>();
//   measure->measure("coverage", coverage_measure());
//
//   Campaign c = CampaignBuilder()
//                    .sink(measure)
//                    .runner(campaign::parse_runner_spec("threads:4"))
//                    .study("coverage")
//                    .experiments(20)
//                    .generator(make_params)
//                    .done()
//                    .build();   // ConfigError here, not mid-run
//   c.run();
//
// build() validates everything up front: study shells (name, count,
// generator) and experiment 0 of every study (duplicate nicknames,
// spec-name mismatches, unknown hosts, ...). Runners re-validate each
// generated ExperimentParams so per-index generator bugs surface with the
// study name and index attached. run_single is the one-experiment shortcut:
// validate, then run_experiment.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/validate.hpp"
#include "runtime/experiment.hpp"
#include "spec/fault_spec.hpp"

namespace loki::campaign {

class CampaignBuilder;
class ResultCache;

/// A validated, runnable campaign. Built by CampaignBuilder::build().
class Campaign {
 public:
  struct Summary {
    int studies{0};
    int experiments{0};
    int completed{0};
    int timed_out{0};
    /// Experiments served from the ResultCache instead of being run.
    int cache_hits{0};
    /// Experiments replayed from the campaign journal on resume: emitted
    /// straight from the cache by journaled key, without probing, running,
    /// or re-validating. Zero on a non-resumed run.
    int replayed{0};
    /// Fault recovery on fallible runners (RemoteRunner): lease requeue
    /// events, the experiment indices those events sent back to the queue
    /// (one event salvaging 5 indices counts 1 event, 5 indices), and
    /// worker links lost during this campaign. Zero elsewhere.
    int requeue_events{0};
    int requeued_indices{0};
    int workers_lost{0};
    double wall_seconds{0.0};
  };

  /// Execute every study in order through the runner, streaming results to
  /// the sinks. Single-shot: the attached sinks have accumulated a full
  /// campaign afterwards, so a second run() throws LogicError — build a
  /// fresh Campaign (and sinks) to run again.
  Summary run();

  const std::vector<runtime::StudyParams>& studies() const { return studies_; }
  const Runner& runner() const { return *runner_; }

 private:
  friend class CampaignBuilder;
  Campaign() = default;

  std::vector<runtime::StudyParams> studies_;
  std::shared_ptr<Runner> runner_;
  std::shared_ptr<ResultCache> cache_;
  std::vector<std::shared_ptr<ResultSink>> sinks_;
  std::filesystem::path journal_path_;  // empty => no journal
  /// One study_digest per study when journaled, computed by build(): a
  /// digest calls the study's generator, which run() calls only in next().
  std::vector<std::string> digests_;
  bool resume_{false};
  int journal_group_{32};
  std::uint64_t journal_seed_{0};
  bool ran_{false};
};

/// Fluent composition of one study; obtained from CampaignBuilder::study().
class StudyBuilder {
 public:
  StudyBuilder& experiments(int n);

  /// Fixed base parameters; experiment k runs with seed base.seed + k.
  StudyBuilder& base(runtime::ExperimentParams params);
  /// Full per-experiment generator (controls its own seeds). Composed
  /// faults and tweaks still apply on top of its output.
  StudyBuilder& generator(std::function<runtime::ExperimentParams(int)> gen);

  /// Parse `fault_spec_text` (§3.5.5) now — ParseError at composition time —
  /// and attach it to the named node.
  StudyBuilder& fault(const std::string& nickname,
                      const std::string& fault_spec_text);
  /// Arbitrary per-experiment adjustment, applied last.
  StudyBuilder& tweak(std::function<void(runtime::ExperimentParams&, int)> fn);

  /// Return to the campaign builder for chaining.
  CampaignBuilder& done() { return *parent_; }

 private:
  friend class CampaignBuilder;
  StudyBuilder(CampaignBuilder* parent, std::string name);

  /// Lower to the runtime-layer study shape. Throws ConfigError on
  /// structural mistakes (e.g. a fault naming an unknown node).
  runtime::StudyParams to_study() const;

  CampaignBuilder* parent_;
  std::string name_;
  int experiments_{10};
  std::optional<runtime::ExperimentParams> base_;
  std::function<runtime::ExperimentParams(int)> generator_;
  std::vector<std::pair<std::string, spec::FaultSpec>> faults_;
  std::vector<std::function<void(runtime::ExperimentParams&, int)>> tweaks_;
};

class CampaignBuilder {
 public:
  CampaignBuilder() = default;
  // Non-copyable/movable: StudyBuilders hand out references tied to this
  // object (their done() points back here), so a copy would alias mutable
  // study state and a move would dangle those references.
  CampaignBuilder(const CampaignBuilder&) = delete;
  CampaignBuilder& operator=(const CampaignBuilder&) = delete;

  /// Begin composing a new study.
  StudyBuilder& study(const std::string& name);
  /// Add a pre-built runtime-layer study.
  CampaignBuilder& add(runtime::StudyParams study);

  /// Execution strategy; default SerialRunner. parse_runner_spec
  /// (campaign/runner.hpp) builds one from a spec string.
  CampaignBuilder& runner(std::shared_ptr<Runner> runner);

  /// Attach a streaming observer (any number).
  CampaignBuilder& sink(std::shared_ptr<ResultSink> sink);

  /// Cache-first execution (campaign/cache.hpp): every experiment is looked
  /// up by its content key before running; only misses go through the
  /// runner, and fresh results are stored. Requires every node to carry a
  /// wire identity (NodeConfig::app_name) — checked at build() time.
  CampaignBuilder& cache(std::shared_ptr<ResultCache> cache);

  /// Crash-safe coordination (campaign/journal.hpp): write-ahead journal
  /// every emitted index to `path` (truncating any previous journal), so a
  /// killed coordinator can resume() instead of starting over. Requires a
  /// cache — the journal's replay guarantee rests on the cache's durable
  /// store ordering — checked at build(). `seed` is recorded in the
  /// CampaignBegin record for operators (not validated on resume; the
  /// study digests carry the real identity).
  CampaignBuilder& journal(const std::string& path, std::uint64_t seed = 0);
  /// Resume from the journal at `path`: validate each journaled study's
  /// digest against this campaign, replay the journaled prefix from the
  /// cache (zero re-execution), run only the tail, and keep appending to
  /// the same journal. A journal whose campaign already completed replays
  /// everything; one killed before CampaignBegin behaves like journal().
  CampaignBuilder& resume(const std::string& path);
  /// IndexDone records per journal group commit (default 32); 1 fsyncs
  /// every record — what the crash-resume tests use for exact kill points.
  CampaignBuilder& journal_group(int records);

  /// Validate every study — shell, uniqueness, and experiment 0's full
  /// configuration — and produce a runnable Campaign. Throws ConfigError.
  Campaign build() const;

 private:
  struct Entry {
    std::optional<runtime::StudyParams> prebuilt;
    std::shared_ptr<StudyBuilder> builder;
  };

  std::vector<Entry> entries_;
  std::shared_ptr<Runner> runner_;
  std::shared_ptr<ResultCache> cache_;
  std::vector<std::shared_ptr<ResultSink>> sinks_;
  std::filesystem::path journal_path_;
  bool resume_{false};
  int journal_group_{32};
  std::uint64_t journal_seed_{0};
};

/// Validate `params` (ConfigError on mistakes), then run one experiment.
runtime::ExperimentResult run_single(const runtime::ExperimentParams& params,
                                     const std::string& context = "experiment");

}  // namespace loki::campaign

namespace loki {
using campaign::Campaign;
using campaign::CampaignBuilder;
}  // namespace loki
