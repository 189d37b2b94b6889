// Property tests for the compiled fault-predicate path: the flat postfix
// CompiledFaultProgram must agree with the spec-layer tree walk
// (FaultExpr::eval) on randomized expressions and randomized state vectors,
// including terms that name machines/states outside the study dictionary.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "runtime/compiled_fault.hpp"
#include "runtime/dictionary.hpp"
#include "spec/fault_expr.hpp"
#include "spec/state_machine_spec.hpp"
#include "util/rng.hpp"

namespace loki::runtime {
namespace {

const std::vector<std::string> kStates = {"BEGIN", "LEAD",  "FOLLOW",
                                          "ELECT", "CRASH", "EXIT"};

/// Machines m0..m3 are in the study; ghost0/ghost1 appear in expressions
/// but not in the dictionary.
struct Fixture {
  std::vector<spec::StateMachineSpec> specs;
  spec::FaultSpec none;
  StudyDictionary dict;

  Fixture() : specs(make_specs()), dict(build()) {}

  static std::vector<spec::StateMachineSpec> make_specs() {
    std::vector<spec::StateMachineSpec> out;
    for (int i = 0; i < 4; ++i) {
      out.emplace_back("m" + std::to_string(i), kStates,
                       std::vector<std::string>{"go"},
                       std::vector<spec::StateDef>{});
    }
    return out;
  }
  StudyDictionary build() const {
    std::vector<const spec::StateMachineSpec*> sp;
    std::vector<const spec::FaultSpec*> fp;
    for (const auto& s : specs) {
      sp.push_back(&s);
      fp.push_back(&none);
    }
    return StudyDictionary::build(sp, fp);
  }
};

spec::FaultExprPtr random_expr(Rng& rng, int depth) {
  const double roll = rng.uniform_real(0.0, 1.0);
  if (depth <= 0 || roll < 0.4) {
    // Terms draw from in-study machines mostly, ghosts sometimes, and from
    // known states mostly, unknown states sometimes.
    const bool ghost = rng.uniform_real(0.0, 1.0) < 0.15;
    const std::string machine =
        ghost ? "ghost" + std::to_string(rng.uniform_int(0, 1))
              : "m" + std::to_string(rng.uniform_int(0, 3));
    const bool unknown_state = rng.uniform_real(0.0, 1.0) < 0.1;
    const std::string state =
        unknown_state ? "NO_SUCH_STATE"
                      : kStates[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<int>(kStates.size()) - 1))];
    return spec::make_term(machine, state);
  }
  if (roll < 0.55) return spec::make_not(random_expr(rng, depth - 1));
  if (roll < 0.8)
    return spec::make_and(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
  return spec::make_or(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
}

class CompiledVsTreeWalk : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsTreeWalk, AgreeOnRandomizedExpressionsAndViews) {
  Fixture fx;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ull + 11);

  for (int trial = 0; trial < 60; ++trial) {
    const auto expr = random_expr(rng, 4);
    const auto prog = CompiledFaultProgram::compile(*expr, fx.dict);
    std::vector<unsigned char> stack(prog.stack_depth());

    for (int v = 0; v < 20; ++v) {
      // Random dense view; some machines unknown.
      std::vector<StateId> view(fx.dict.machine_count(), kNoState);
      std::map<std::string, std::string> names;
      for (MachineId m = 0; m < view.size(); ++m) {
        if (rng.uniform_real(0.0, 1.0) < 0.3) continue;  // stays unknown
        const auto s = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kStates.size()) - 1));
        view[m] = fx.dict.state_index(kStates[s]);
        names[fx.dict.machine_name(m)] = kStates[s];
      }
      const spec::StateView sv =
          [&](const std::string& machine) -> const std::string* {
        const auto it = names.find(machine);
        return it == names.end() ? nullptr : &it->second;
      };
      ASSERT_EQ(prog.eval(view, stack.data()), expr->eval(sv))
          << "divergence on " << expr->to_string() << " (trial " << trial
          << ", view " << v << ")";
    }

    // The empty view used for edge initialization must also agree.
    const spec::StateView empty = [](const std::string&) -> const std::string* {
      return nullptr;
    };
    ASSERT_EQ(prog.eval_empty(stack.data()), expr->eval(empty))
        << "empty-view divergence on " << expr->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledVsTreeWalk, ::testing::Range(0, 8));

TEST(CompiledFaultProgram, PostfixRoundTripOfParsedExpressions) {
  Fixture fx;
  // A handful of thesis-shaped expressions through parse -> compile.
  const char* exprs[] = {
      "((m0:CRASH) & ((m1:FOLLOW) | (m1:ELECT)))",
      "~(m2:LEAD)",
      "((m0:LEAD) & ~(m1:CRASH)) | ((m2:ELECT) & (m3:FOLLOW))",
      "(ghost0:LEAD) | (m0:LEAD)",
  };
  for (const char* text : exprs) {
    const auto expr = spec::parse_fault_expr(text, "t", 1);
    const auto prog = CompiledFaultProgram::compile(*expr, fx.dict);
    std::vector<unsigned char> stack(prog.stack_depth());
    std::vector<StateId> view(fx.dict.machine_count(), kNoState);
    view[fx.dict.machine_index("m0")] = fx.dict.state_index("LEAD");
    std::map<std::string, std::string> names{{"m0", "LEAD"}};
    const spec::StateView sv =
        [&](const std::string& machine) -> const std::string* {
      const auto it = names.find(machine);
      return it == names.end() ? nullptr : &it->second;
    };
    EXPECT_EQ(prog.eval(view, stack.data()), expr->eval(sv)) << text;
  }
}

}  // namespace
}  // namespace loki::runtime
