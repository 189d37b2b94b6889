// The fault parser (§3.5.5).
//
// On every change of the partial view of global state, every Boolean fault
// expression is re-evaluated; expressions that transitioned false -> true
// fire (positive-edge triggering, §5.4), subject to once|always:
//   once   — fire only on the first such edge in the experiment;
//   always — fire on every edge.
//
// Expressions are compiled once per study (CompiledFaultProgram), so the
// per-notification sweep is a branch-predictable pass over flat postfix
// programs against the dense id view — no tree walk, no string compares,
// no allocation (the fired list is a reused buffer).
//
// Previous values are initialized by evaluating each expression against the
// empty view at reset, so an expression that is vacuously true from the
// start (e.g. pure negations) does not fire until it first goes false and
// comes back.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/compiled_fault.hpp"
#include "runtime/dictionary.hpp"
#include "spec/fault_spec.hpp"

namespace loki::runtime {

class FaultParser {
 public:
  /// Borrow programs compiled once per study (CompiledMachine in
  /// runtime/compiled_study.hpp). `entries` and `programs` must be parallel
  /// vectors (same length, same order) and outlive the parser;
  /// `stack_depth` is the scratch size needed by the deepest program. The
  /// parser evaluates shared programs with its own scratch, so any number
  /// of parsers (across experiments and threads) may borrow the same
  /// programs concurrently.
  FaultParser(const std::vector<spec::FaultSpecEntry>& entries,
              const std::vector<CompiledFaultProgram>& programs,
              std::size_t stack_depth);

  /// Re-evaluate all expressions against the dense view (indexed by
  /// MachineId, kNoState for unknown); returns the indices (into the entry
  /// list) of faults that must be injected now, in entry order. The
  /// returned reference is into a buffer reused by the next call.
  const std::vector<std::uint32_t>& on_view_change(
      const std::vector<StateId>& view);

  /// Forget edge/armed state (new experiment).
  void reset();

  const std::vector<spec::FaultSpecEntry>& entries() const { return *entries_; }

  std::uint64_t evaluations() const { return evaluations_; }

 private:
  struct EdgeState {
    bool prev{false};
    bool fired_once{false};
  };

  const std::vector<spec::FaultSpecEntry>* entries_;
  const std::vector<CompiledFaultProgram>* programs_;
  /// Evaluation scratch for the shared programs (see CompiledFaultProgram's
  /// external-stack eval).
  std::vector<unsigned char> scratch_;
  std::vector<EdgeState> edges_;
  std::vector<std::uint32_t> fired_;
  std::uint64_t evaluations_{0};
};

}  // namespace loki::runtime
