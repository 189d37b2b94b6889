// Pluggable experiment execution for the campaign facade.
//
// A Runner executes one campaign's plan and hands each result to an emit
// callback. The plan is pulled: next() yields one study at a time, in study
// order, as sorted disjoint [lo, hi) runs of the indices to execute (cache
// hits and journal replay never reach the runner, so a study's plan may be
// empty). Pulling lets Campaign::run probe study k+1's cache only when the
// runner first asks for it, and lets a runner with a fleet lease study k+1
// while study k drains. The contract every implementation must honour:
//
//   * next() and emit() are called only on the thread that called run();
//     next() may call the studies' generators (a cache-first probe), emit()
//     never does;
//   * next() is called until it returns nullopt, unless run() throws;
//   * emit(s, k, result) is called exactly once per planned (s, k), in
//     increasing (s, k) order;
//   * failure prefix: if planned experiment (s, k) fails (generator,
//     validation, run), every planned index before it is emitted, then its
//     exception is rethrown; nothing past it is emitted;
//   * an exception thrown by next() or emit() (a sink, the cache, the
//     journal) stops the run and propagates unchanged.
//
// Because run_experiment is deterministic in params.seed and every
// experiment builds its own World, experiments are embarrassingly parallel:
// ThreadPoolRunner and RemoteRunner produce byte-identical results (and an
// identical sink event sequence) to SerialRunner for the same studies.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/experiment.hpp"
#include "runtime/worker_stats.hpp"

namespace loki::campaign {

/// A run [lo, hi) of one study's experiment indices.
struct IndexRun {
  int lo{0};
  int hi{0};
};

/// One study's share of the campaign plan: the indices the runner must
/// execute, as sorted, disjoint, non-empty runs. Empty when every index of
/// the study is served without the runner.
struct StudyPlan {
  int study{0};  // ordinal into the studies passed to Runner::run
  std::vector<IndexRun> runs;
};

/// Pulls the next study's plan, in study order; nullopt once the plan is
/// exhausted.
using NextFn = std::function<std::optional<StudyPlan>()>;
/// Receives planned experiment (study, index)'s result; see the ordering
/// contract above.
using EmitFn =
    std::function<void(int study, int index, runtime::ExperimentResult&&)>;

/// One heartbeat's worth of one worker's stats, as seen by the coordinator.
/// The arrival timestamp is coordinator-side (steady clock), so last-seen
/// ages and throughput windows need no cross-host clock agreement.
struct WorkerSnapshotSample {
  std::chrono::steady_clock::time_point arrived{};
  runtime::WorkerStatsSnapshot stats;
};

/// Per-worker telemetry slot inside FleetTelemetry: the latest cumulative
/// snapshot, a short ring buffer of recent snapshots (time-series for
/// throughput windows and the --status view), and this worker's share of
/// the fault-recovery counters.
struct WorkerTelemetry {
  /// Transport description (e.g. "fake:0", "fork:12345", "ssh host").
  std::string describe;
  /// Most recent snapshot received; supersedes the ring's older entries.
  runtime::WorkerStatsSnapshot latest;
  /// Recent snapshots, oldest first, capped at kSnapshotRing entries.
  std::vector<WorkerSnapshotSample> recent;
  /// Coordinator-side arrival time of the last frame (any type) from this
  /// worker — the liveness signal the --status view renders as an age.
  std::chrono::steady_clock::time_point last_seen{};
  /// Current lease span assigned to this worker (autotuned).
  int lease_size{0};
  /// Requeue events attributed to this worker's leases.
  int requeues{0};
  /// True once the coordinator declared this worker lost. A lost worker's
  /// slot stays lost for the rest of the Campaign::run.
  bool lost{false};
  /// True while the worker holds an active lease.
  bool busy{false};

  static constexpr std::size_t kSnapshotRing = 32;
};

/// Fleet-wide telemetry for runners that execute work on fallible backends
/// (campaign/remote_runner.hpp). The cumulative counters (requeues,
/// requeued_indices, workers_lost) survive across run() calls — the
/// Campaign::Summary delta depends on that — while `workers` describes the
/// most recent (or in-flight) Campaign::run's fleet.
struct FleetTelemetry {
  /// Lease requeue events after a lost, hung, or lossy worker.
  int requeues{0};
  /// Experiment indices sent back to the queue across those events (one
  /// event covering 5 unfinished indices counts 1 requeue, 5 indices).
  int requeued_indices{0};
  /// Worker links that died mid-run (crash, hang-kill, corrupt stream).
  int workers_lost{0};
  /// The autotuner's current lease span (campaign/remote_runner.hpp),
  /// updated at every tuning step, so a read mid-campaign is current and a
  /// read after the run is where the span converged. 0 for runners without
  /// leases.
  int final_lease_size{0};
  /// Per-worker slots for the current/most recent Campaign::run's fleet,
  /// indexed by the transport's worker order. Reset at each run() start;
  /// each slot's snapshot is cumulative over the whole run.
  std::vector<WorkerTelemetry> workers;

  /// Campaign-wide aggregate of every worker's latest snapshot (merged
  /// histograms, completed-count-weighted EWMA).
  runtime::WorkerStatsSnapshot fleet_snapshot() const {
    runtime::WorkerStatsSnapshot merged;
    for (const WorkerTelemetry& w : workers)
      merged = runtime::merge_snapshots(merged, w.latest);
    return merged;
  }
};

/// Pre-fleet name for the counter subset; kept as an alias so existing
/// call sites (and the Campaign::Summary delta) read unchanged.
using RunnerTelemetry = FleetTelemetry;

class Runner {
 public:
  virtual ~Runner();

  virtual std::string name() const = 0;

  /// Execute the plan that `next` yields over `studies`; see the contract
  /// above. Generated params are validated (ConfigError names the study and
  /// index) before running.
  virtual void run(const std::vector<runtime::StudyParams>& studies,
                   const NextFn& next, const EmitFn& emit) = 0;

  /// Fault-recovery counters, cumulative across run() calls. Runners on
  /// infallible backends keep the zero default.
  virtual RunnerTelemetry telemetry() const { return {}; }
};

/// Runs experiments one after another on the calling thread — the reference
/// implementation the parallel runners are held to.
class SerialRunner final : public Runner {
 public:
  std::string name() const override { return "serial"; }
  void run(const std::vector<runtime::StudyParams>& studies,
           const NextFn& next, const EmitFn& emit) override;
};

/// Fans the campaign's planned experiments out across one pool of worker
/// threads per run(), then re-orders completions so emit still observes the
/// serial sequence. The calling thread pulls the plan just far enough ahead
/// of its drain cursor for the claim window to fill, so threads cross study
/// boundaries without draining. Each thread keeps one ExperimentContext for
/// the whole run and compiles a study on its first experiment of it.
/// Threads claim positions at most 2 * workers past the drain cursor, so
/// the reorder buffer stays O(workers) and streaming sinks keep their
/// memory guarantee even when early experiments run long.
///
/// study.make_params is invoked under a lock: generators may capture shared
/// state by reference and are only required to be deterministic per index,
/// not thread-safe. The calling thread holds the same lock across next(),
/// whose cache-first probe calls the next study's generator while threads
/// may still generate the previous one; emit() calls no generator, so it
/// runs unlocked. run_experiment itself runs unlocked on the workers.
///
/// Failure semantics match SerialRunner: if planned experiment k throws
/// (generator, validation, or run), the planned indices before it are still
/// emitted in order, then k's exception is rethrown; no index past the
/// first failing one is emitted, and nothing more is pulled.
class ThreadPoolRunner final : public Runner {
 public:
  /// Throws ConfigError when workers < 1.
  explicit ThreadPoolRunner(int workers);

  std::string name() const override;
  void run(const std::vector<runtime::StudyParams>& studies,
           const NextFn& next, const EmitFn& emit) override;

 private:
  int workers_;
};

/// One runner-selection grammar for every CLI surface (lokimeasure,
/// examples, benches):
///
///   "serial"         SerialRunner
///   "threads:N"      ThreadPoolRunner(N)
///   "procs:N"        RemoteRunner over SubprocessTransport(N) — N local
///                    worker processes pulling leases from a dynamic work
///                    queue (campaign/remote_runner.hpp)
///   "remote:FILE"    RemoteRunner over SshTransport, one worker per
///                    hostfile line ('#' comments, blanks ignored)
///
/// Throws ConfigError on anything else (including N < 1 and a bare "N").
std::shared_ptr<Runner> parse_runner_spec(const std::string& spec);

}  // namespace loki::campaign
