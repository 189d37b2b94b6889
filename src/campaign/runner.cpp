#include "campaign/runner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/pulled_plan.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "campaign/validate.hpp"
#include "runtime/experiment_context.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/text_file.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

namespace {

runtime::ExperimentParams checked_params(const runtime::StudyParams& study,
                                         int index) {
  runtime::ExperimentParams params = study.make_params(index);
  validate_experiment_params(params, experiment_context(study, index));
  return params;
}

/// Everything ThreadPoolRunner's threads and its calling thread share for
/// one run. Threads claim campaign-wide positions of the pulled plan. The
/// mutex discipline is declared so clang -Wthread-safety can prove it: `mu`
/// guards the plan and the claim/complete/drain state, `gen_mu` only
/// serializes user parameter generators (which may share hidden state
/// across indices), including the ones next() calls.
struct PoolShared {
  util::Mutex gen_mu;  // serializes make_params, next(); never held with `mu`
  util::Mutex mu;
  util::CondVar cv;
  PulledPlan plan LOKI_GUARDED_BY(mu);
  bool plan_done LOKI_GUARDED_BY(mu){false};
  std::map<int, runtime::ExperimentResult> ready LOKI_GUARDED_BY(mu);
  std::exception_ptr failure LOKI_GUARDED_BY(mu);
  /// Lowest position that threw.
  int fail_min LOKI_GUARDED_BY(mu){std::numeric_limits<int>::max()};
  int claimed LOKI_GUARDED_BY(mu){0};  // next position to claim
  int emitted LOKI_GUARDED_BY(mu){0};  // positions already handed to emit
  bool abort LOKI_GUARDED_BY(mu){false};  // next() or emit() threw
};

}  // namespace

Runner::~Runner() = default;

void SerialRunner::run(const std::vector<runtime::StudyParams>& studies,
                        const NextFn& next, const EmitFn& emit) {
  // One context for the whole run: a study's first experiment compiles it,
  // every later index reuses the compiled tables and the world's slabs (a
  // structurally different study recompiles inside run()).
  runtime::ExperimentContext context;
  while (const std::optional<StudyPlan> plan = next()) {
    const runtime::StudyParams& study =
        studies[static_cast<std::size_t>(plan->study)];
    for (const IndexRun& run : plan->runs)
      for (int k = run.lo; k < run.hi; ++k)
        emit(plan->study, k, context.run(checked_params(study, k)));
  }
}

ThreadPoolRunner::ThreadPoolRunner(int workers) : workers_(workers) {
  if (workers < 1)
    throw ConfigError("ThreadPoolRunner: workers must be >= 1, got " +
                      std::to_string(workers));
}

std::string ThreadPoolRunner::name() const {
  return "thread-pool(" + std::to_string(workers_) + ")";
}

void ThreadPoolRunner::run(const std::vector<runtime::StudyParams>& studies,
                           const NextFn& next, const EmitFn& emit) {
  PoolShared s;
  // Backpressure: at most `window` positions past the drain cursor may be
  // claimed, so `ready` stays O(workers) even when one early experiment is
  // slow. The plan is pulled just far enough ahead for the window to fill.
  const int window = 2 * workers_;

  auto work = [&] {
    // One resettable context per thread for the whole run: a study's first
    // experiment on this thread compiles it, every later one reuses it.
    runtime::ExperimentContext context;
    for (;;) {
      int pos = 0;
      Segment segment;
      {
        util::MutexLock lock(s.mu);
        while (!(s.abort || s.failure != nullptr ||
                 s.claimed < std::min(s.plan.planned(), s.emitted + window) ||
                 (s.plan_done && s.claimed >= s.plan.planned())))
          s.cv.wait(s.mu);
        if (s.abort || s.failure != nullptr || s.claimed >= s.plan.planned())
          return;
        pos = s.claimed++;
        segment = s.plan.segment_at(pos);
      }
      const runtime::StudyParams& study =
          studies[static_cast<std::size_t>(segment.study)];
      const int k = segment.index_at(pos);
      try {
        runtime::ExperimentParams params;
        {
          util::MutexLock lock(s.gen_mu);
          params = study.make_params(k);
        }
        validate_experiment_params(params, experiment_context(study, k));
        runtime::ExperimentResult result = context.run(params);
        util::MutexLock lock(s.mu);
        s.ready.emplace(pos, std::move(result));
      } catch (...) {
        util::MutexLock lock(s.mu);
        if (pos < s.fail_min) {
          s.fail_min = pos;
          s.failure = std::current_exception();
        }
      }
      s.cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  // Drain completions in position order on the calling thread, so sinks see
  // exactly the sequence SerialRunner would produce — including on failure:
  // every position below the first failing one was claimed earlier and will
  // either complete (emitted here) or lower fail_min itself, so waiting on
  // `ready[pos] || pos >= fail_min` emits the same prefix serial would
  // before rethrowing the first failure.
  try {
    util::MutexLock lock(s.mu);
    for (;;) {
      // Nothing more is pulled once an experiment failed: the campaign ends
      // at that failure.
      while (!s.plan_done && s.failure == nullptr &&
             s.plan.planned() < s.emitted + window) {
        lock.unlock();
        std::optional<StudyPlan> plan;
        {
          util::MutexLock gen(s.gen_mu);
          plan = next();
        }
        lock.lock();
        if (plan.has_value())
          s.plan.append(*plan);
        else
          s.plan_done = true;
        s.cv.notify_all();
      }
      // Threads start lazily, at most one per planned position, so a plan
      // the pool never has to execute (every index cached or replayed)
      // starts none.
      while (static_cast<int>(pool.size()) <
             std::min(workers_, s.plan.planned()))
        pool.emplace_back(work);
      if (s.emitted >= s.fail_min ||
          (s.plan_done && s.emitted >= s.plan.planned()))
        break;
      while (!(s.ready.contains(s.emitted) || s.emitted >= s.fail_min))
        s.cv.wait(s.mu);
      if (s.emitted >= s.fail_min) break;
      auto node = s.ready.extract(s.emitted);
      const Segment& segment = s.plan.segment_at(s.emitted);
      const int study = segment.study;
      const int index = segment.index_at(s.emitted);
      lock.unlock();
      emit(study, index, std::move(node.mapped()));
      lock.lock();
      ++s.emitted;
      s.cv.notify_all();  // open the claim window
    }
  } catch (...) {
    {
      util::MutexLock lock(s.mu);
      s.abort = true;
    }
    s.cv.notify_all();
    for (std::thread& t : pool) t.join();
    throw;
  }

  for (std::thread& t : pool) t.join();
  // Threads are joined: sole owner now, but the analysis still wants the
  // lock for the guarded read (and it documents the rethrow contract).
  util::MutexLock lock(s.mu);
  if (s.failure) std::rethrow_exception(s.failure);
}

std::shared_ptr<Runner> parse_runner_spec(const std::string& spec) {
  const auto bad = [&spec]() -> ConfigError {
    return ConfigError(
        "bad runner spec '" + spec +
        "' (expected serial | threads:N | procs:N | remote:HOSTFILE)");
  };
  const auto workers_of = [&](std::string_view text) {
    int workers = 0;
    for (const char c : text) {
      if (c < '0' || c > '9' || workers > 10'000'000) throw bad();
      workers = workers * 10 + (c - '0');
    }
    if (text.empty() || workers < 1) throw bad();
    return workers;
  };

  if (spec == "serial") return std::make_shared<SerialRunner>();
  const std::string_view view(spec);
  if (view.starts_with("threads:"))
    return std::make_shared<ThreadPoolRunner>(workers_of(view.substr(8)));
  if (view.starts_with("procs:"))
    // Dynamic work-queue sharding over local worker processes; crash-
    // tolerant, byte-identical to serial (campaign/remote_runner.hpp).
    return std::make_shared<RemoteRunner>(
        std::make_shared<SubprocessTransport>(workers_of(view.substr(6))));
  if (view.starts_with("remote:")) {
    const std::string path(view.substr(7));
    if (path.empty()) throw bad();
    return std::make_shared<RemoteRunner>(std::make_shared<SshTransport>(
        parse_hostfile(read_file(path), path)));
  }
  throw bad();
}

}  // namespace loki::campaign
