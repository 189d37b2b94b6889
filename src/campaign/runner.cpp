#include "campaign/runner.hpp"

#include <atomic>
#include <map>
#include <string_view>
#include <thread>
#include <vector>

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

/// Compile the study-invariant machinery from the first planned
/// experiment, for runners that share one CompiledStudy across worker
/// contexts. Generators are deterministic per index (the standard campaign
/// contract; build() probes index 0 the same way), so the extra make_params
/// call is safe. A failure here is exactly the failure that experiment would
/// have produced — same exception, same empty emitted prefix.
std::shared_ptr<const runtime::CompiledStudy> compile_study_front(
    const runtime::StudyParams& study, int first) {
  return runtime::CompiledStudy::compile(checked_params(study, first));
}

/// Everything ThreadPoolRunner's workers and drain loop share for one
/// study. Workers claim *positions* into the study's planned indices. The
/// mutex discipline is declared so clang -Wthread-safety can prove it: `mu`
/// guards claim/complete/drain state, `gen_mu` only serializes user
/// parameter generators (which may share hidden state across indices).
struct PoolShared {
  explicit PoolShared(int n) : fail_min(n) {}

  util::Mutex gen_mu;  // serializes make_params; never held with `mu`
  util::Mutex mu;
  util::CondVar cv;
  std::map<int, runtime::ExperimentResult> ready LOKI_GUARDED_BY(mu);
  std::exception_ptr failure LOKI_GUARDED_BY(mu);
  int fail_min LOKI_GUARDED_BY(mu);    // lowest position that threw
  int next LOKI_GUARDED_BY(mu){0};     // next position to claim
  int emitted LOKI_GUARDED_BY(mu){0};  // positions already handed to emit
  /// Not guarded: a latch raced only in the safe direction. Workers that
  /// miss a newly-set abort claim at most one extra experiment.
  std::atomic<bool> abort{false};
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

namespace {

/// One study's planned indices through the pool: `indices` in serial order,
/// claimed by position.
void run_pool_study(const runtime::StudyParams& study, int ordinal,
                    const std::vector<int>& indices, int workers,
                    const EmitFn& emit) {
  const int n = static_cast<int>(indices.size());
  if (n <= 0) return;

  // Compile once on the calling thread; every worker context borrows the
  // same immutable CompiledStudy (its tables are shared read-only).
  const std::shared_ptr<const runtime::CompiledStudy> compiled =
      compile_study_front(study, indices.front());

  PoolShared s(n);
  // Backpressure: at most `window` experiments past the drain cursor may be
  // claimed, so `ready` stays O(workers) even when one early experiment is
  // slow — the streaming-sink memory guarantee survives skewed runtimes.
  const int window = 2 * workers;

  auto worker = [&] {
    // One resettable context per worker thread, alive for the whole study.
    runtime::ExperimentContext context(compiled);
    for (;;) {
      int pos = 0;
      {
        util::MutexLock lock(s.mu);
        while (!(s.abort.load(std::memory_order_relaxed) ||
                 s.failure != nullptr || s.next >= n ||
                 s.next - s.emitted < window))
          s.cv.wait(s.mu);
        if (s.abort.load(std::memory_order_relaxed) || s.failure != nullptr ||
            s.next >= n)
          return;
        pos = s.next++;
      }
      const int k = indices[static_cast<std::size_t>(pos)];
      try {
        runtime::ExperimentParams params;
        {
          util::MutexLock lock(s.gen_mu);
          params = study.make_params(k);
        }
        validate_experiment_params(params, experiment_context(study, k));
        runtime::ExperimentResult result = context.run(params);
        {
          util::MutexLock lock(s.mu);
          s.ready.emplace(pos, std::move(result));
        }
      } catch (...) {
        {
          util::MutexLock lock(s.mu);
          if (pos < s.fail_min) {
            s.fail_min = pos;
            s.failure = std::current_exception();
          }
        }
        s.abort.store(true, std::memory_order_relaxed);
      }
      s.cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  const int spawn = workers < n ? workers : n;
  pool.reserve(static_cast<std::size_t>(spawn));
  for (int i = 0; i < spawn; ++i) pool.emplace_back(worker);

  // Drain completions in position order on the calling thread, so sinks see
  // exactly the sequence SerialRunner would produce — including on failure:
  // every position below the first failing one was claimed earlier and will
  // either complete (emitted here) or lower fail_min itself, so waiting on
  // `ready[pos] || pos >= fail_min` emits the same prefix serial would
  // before rethrowing the first failure.
  try {
    util::MutexLock lock(s.mu);
    for (int pos = 0; pos < n; ++pos) {
      while (!(s.ready.contains(pos) || pos >= s.fail_min)) s.cv.wait(s.mu);
      if (pos >= s.fail_min) break;
      auto node = s.ready.extract(pos);
      lock.unlock();
      emit(ordinal, indices[static_cast<std::size_t>(pos)],
           std::move(node.mapped()));
      lock.lock();
      ++s.emitted;
      s.cv.notify_all();  // open the claim window
    }
  } catch (...) {
    s.abort.store(true, std::memory_order_relaxed);
    s.cv.notify_all();
    for (std::thread& t : pool) t.join();
    throw;
  }

  for (std::thread& t : pool) t.join();
  {
    // Workers are joined: sole owner now, but the analysis still wants the
    // lock for the guarded reads (and it documents the rethrow contract).
    util::MutexLock lock(s.mu);
    if (s.failure) std::rethrow_exception(s.failure);
  }
}

}  // namespace

void ThreadPoolRunner::run(const std::vector<runtime::StudyParams>& studies,
                           const NextFn& next, const EmitFn& emit) {
  while (const std::optional<StudyPlan> plan = next()) {
    std::vector<int> indices;
    for (const IndexRun& run : plan->runs)
      for (int k = run.lo; k < run.hi; ++k) indices.push_back(k);
    run_pool_study(studies[static_cast<std::size_t>(plan->study)],
                   plan->study, indices, workers_, emit);
  }
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
