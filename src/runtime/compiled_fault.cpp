#include "runtime/compiled_fault.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace loki::runtime {

CompiledFaultProgram CompiledFaultProgram::compile(const spec::FaultExpr& expr,
                                                  const StudyDictionary& dict) {
  CompiledFaultProgram prog;
  std::size_t depth = 0;
  std::size_t max_depth = 0;
  for (const spec::PostfixOp& op : spec::expr_postfix(expr)) {
    Instr instr;
    switch (op.kind) {
      case spec::PostfixOp::Kind::Term: {
        const MachineId m = dict.try_machine_index(op.machine);
        const StateId s = dict.try_state_index(op.state);
        if (m == kInvalidId || s == kInvalidId) {
          instr.op = Op::False;
        } else {
          instr.op = Op::Term;
          instr.machine = m;
          instr.state = s;
        }
        ++depth;
        break;
      }
      case spec::PostfixOp::Kind::And:
        instr.op = Op::And;
        --depth;
        break;
      case spec::PostfixOp::Kind::Or:
        instr.op = Op::Or;
        --depth;
        break;
      case spec::PostfixOp::Kind::Not:
        instr.op = Op::Not;
        break;
    }
    max_depth = std::max(max_depth, depth);
    prog.code_.push_back(instr);
  }
  LOKI_REQUIRE(depth == 1, "malformed fault expression postfix");
  prog.stack_depth_ = max_depth;
  return prog;
}

bool CompiledFaultProgram::run(const std::vector<StateId>* view,
                               unsigned char* stack) const {
  unsigned char* sp = stack;
  for (const Instr& instr : code_) {
    switch (instr.op) {
      case Op::Term:
        *sp++ = view != nullptr && (*view)[instr.machine] == instr.state;
        break;
      case Op::False:
        *sp++ = 0;
        break;
      case Op::And:
        --sp;
        sp[-1] = sp[-1] & sp[0];
        break;
      case Op::Or:
        --sp;
        sp[-1] = sp[-1] | sp[0];
        break;
      case Op::Not:
        sp[-1] = static_cast<unsigned char>(!sp[-1]);
        break;
    }
  }
  return sp[-1] != 0;
}

bool CompiledFaultProgram::eval(const std::vector<StateId>& view,
                                unsigned char* stack) const {
  return run(&view, stack);
}

bool CompiledFaultProgram::eval_empty(unsigned char* stack) const {
  return run(nullptr, stack);
}

}  // namespace loki::runtime
