// Compile-once, reset-many experiment execution (the campaign hot loop).
//
// run_experiment() rebuilt every piece of study-invariant machinery —
// dictionary interning, transition-matrix compilation, notify-list
// interning, fault-program compilation, the event-queue slab — inside every
// call, although a measure-phase campaign holds all of it fixed across
// thousands of experiments (PAPER.md §3.5, Ch. 5). ExperimentContext splits
// the two lifetimes:
//
//   CompiledStudy      (runtime/compiled_study.hpp) — built once per study,
//                      immutable, shareable across worker threads.
//   ExperimentContext  one per executor (serial loop, pool thread, remote
//                      worker) — owns the sim::World, the recorders, and
//                      the per-run wiring, and resets them in place between
//                      experiments instead of reallocating: the world keeps
//                      its event slab and link tables, recorders
//                      clear-and-refill their timelines, and the compiled
//                      tables are borrowed.
//
// Identity contract: context.run(params) is byte-identical to
// run_experiment(params) for every params, in any order, with any reuse —
// enforced by tests/context_test.cpp and the identity CI job. A context is
// single-threaded; parallelism means one context per thread, each compiling
// a study on its first experiment of it.
//
// Structure changes between experiments are legal: run() checks the cached
// study with CompiledStudy::compatible_with and recompiles when the node
// list or a spec differs, so arbitrary generators keep working (they just
// pay the old per-experiment cost).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/compiled_study.hpp"
#include "runtime/experiment.hpp"
#include "sim/world.hpp"

namespace loki::runtime {

/// Pooled per-run deployment/daemon objects (defined in the .cpp): built on
/// the first run of a study, reset in place by every later run, dropped on
/// recompile. The last per-experiment heap churn of the campaign hot loop.
struct DeploymentPool;

class ExperimentContext {
 public:
  /// Empty context: the first run() compiles its study.
  ExperimentContext();
  /// Seed the study cache with an already-compiled study, so several
  /// contexts share one CompiledStudy.
  explicit ExperimentContext(std::shared_ptr<const CompiledStudy> study);
  ~ExperimentContext();

  ExperimentContext(const ExperimentContext&) = delete;
  ExperimentContext& operator=(const ExperimentContext&) = delete;

  /// Run one experiment: reset the reusable backbone for `params`
  /// (recompiling the study only if `params` is structurally incompatible
  /// with the cached one), execute, and return the result. Deterministic in
  /// params.seed and byte-identical to run_experiment(params). `params`
  /// must stay alive for the duration of the call only.
  ExperimentResult run(const ExperimentParams& params);

  /// The cached compiled study (null until the first run()).
  const std::shared_ptr<const CompiledStudy>& compiled() const {
    return study_;
  }
  /// Introspection for tests and benches.
  std::uint64_t runs() const { return runs_; }
  std::uint64_t recompiles() const { return recompiles_; }
  /// Deployment/daemon objects constructed (not reused from the pool);
  /// steady-state reuse keeps this flat while runs() climbs.
  std::uint64_t deployment_builds() const { return deployment_builds_; }

 private:
  void prepare(const ExperimentParams& params);

  std::shared_ptr<const CompiledStudy> study_;
  std::unique_ptr<sim::World> world_;
  /// One recorder per node (ExperimentParams::nodes order == MachineId
  /// order), persisting across runs (reset per experiment) and across the
  /// crash/restart incarnations within a run (§3.6.3).
  std::vector<std::shared_ptr<Recorder>> recorders_;
  /// Cleared whenever study_ is recompiled: the pooled objects hold a
  /// reference to the compiled study's dictionary.
  std::unique_ptr<DeploymentPool> pool_;
  std::uint64_t runs_{0};
  std::uint64_t recompiles_{0};
  std::uint64_t deployment_builds_{0};
};

}  // namespace loki::runtime
