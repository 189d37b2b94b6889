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
//                      worker) — keeps the compiled study, the sim::World
//                      and the per-node recorders across experiments and
//                      resets the last two in place instead of reallocating:
//                      the world keeps its event slab and link tables, and
//                      recorders clear-and-refill their timelines. Each run
//                      builds its own deployment (the §3.5 fabric and
//                      central daemon, or a §3.4 alternative design), which
//                      is only a few machine-sized tables plus callbacks
//                      into that run, and destroys it when the run ends.
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

class ExperimentContext {
 public:
  /// Empty context: the first run() compiles its study.
  ExperimentContext() = default;
  /// Seed the study cache with an already-compiled study, so several
  /// contexts share one CompiledStudy.
  explicit ExperimentContext(std::shared_ptr<const CompiledStudy> study);

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

 private:
  void prepare(const ExperimentParams& params);

  std::shared_ptr<const CompiledStudy> study_;
  std::unique_ptr<sim::World> world_;
  /// One recorder per node (ExperimentParams::nodes order == MachineId
  /// order), persisting across runs (reset per experiment) and across the
  /// crash/restart incarnations within a run (§3.6.3).
  std::vector<std::shared_ptr<Recorder>> recorders_;
  std::uint64_t runs_{0};
  std::uint64_t recompiles_{0};
};

}  // namespace loki::runtime
