// Compiled fault predicates (§3.5.6 applied to §3.5.5).
//
// A spec::FaultExpr is a shared_ptr tree evaluated by virtual dispatch with
// a string map lookup per term — fine at parse time, expensive on every
// state notification. CompiledFaultProgram flattens the tree once per
// study into a postfix instruction vector over dense ids: a term becomes
// "view[machine] == state" against the node's std::vector<StateId> partial
// view, and unknown names compile to a constant-false push. The maximum
// stack depth is fixed at compile time and the caller brings the stack, so
// eval() performs no allocation and no string comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/dictionary.hpp"
#include "spec/fault_expr.hpp"

namespace loki::runtime {

class CompiledFaultProgram {
 public:
  CompiledFaultProgram() = default;

  /// Flatten `expr`, interning every (machine:state) term through `dict`.
  /// Terms naming machines or states outside the study compile to False —
  /// a machine that never runs is never in any state.
  static CompiledFaultProgram compile(const spec::FaultExpr& expr,
                                      const StudyDictionary& dict);

  /// Evaluate against a dense partial view of global state: view[m] is the
  /// last known StateId of machine m, or kNoState. `stack` is caller scratch
  /// of at least stack_depth() bytes; the program itself is never written,
  /// so one compiled program may be shared read-only by any number of
  /// evaluators (the CompiledMachine case: the parsers of every incarnation
  /// of a node borrow its programs, each with its own scratch).
  bool eval(const std::vector<StateId>& view, unsigned char* stack) const;
  /// Evaluate against the all-unknown view (parser edge initialization).
  bool eval_empty(unsigned char* stack) const;

  std::size_t size() const { return code_.size(); }
  /// Maximum evaluation-stack depth, fixed at compile time.
  std::size_t stack_depth() const { return stack_depth_; }

 private:
  enum class Op : std::uint8_t { Term, False, And, Or, Not };
  struct Instr {
    Op op{Op::False};
    MachineId machine{kInvalidId};
    StateId state{kInvalidId};
  };

  bool run(const std::vector<StateId>* view, unsigned char* stack) const;

  std::vector<Instr> code_;
  std::size_t stack_depth_{0};
};

}  // namespace loki::runtime
