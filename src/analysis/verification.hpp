// Post-runtime fault-injection correctness check (§2.5).
//
// For each recorded injection, the fault's Boolean expression must have
// *certainly* held for the whole injection interval:
//
//   a term (m:S) is certainly true iff some occupancy of S by m contains
//   the injection with certainty — upper bound of state entry <= lower
//   bound of injection AND upper bound of injection <= lower bound of
//   state exit (the thesis' containment rule);
//   it is certainly false iff no occupancy can overlap the injection;
//   otherwise it is unknown.
//
// Terms combine with Kleene three-valued AND/OR/NOT; the injection is
// correct only when the whole expression is certainly true — exactly the
// thesis' conservatism ("even if both criteria are not met, it may be that
// the fault was injected correctly, but Loki conservatively assumes not").
//
// Refinement the bounds rule alone would miss: events stamped by the SAME
// host clock order exactly by local time (monotone map to true time), so
// same-clock comparisons are resolved exactly instead of via projection
// bounds. Without this, an injection performed microseconds after its own
// machine's state entry would almost always be rejected, since projection
// intervals are wider than a local handler latency.
//
// An experiment is accepted only if every recorded injection is correct and
// (optionally) no `once` fault whose expression certainly became true
// failed to fire at all.
#pragma once

#include <string>
#include <vector>

#include "analysis/global_timeline.hpp"
#include "spec/fault_spec.hpp"

namespace loki::analysis {

enum class Tri : int { False = 0, Unknown = 1, True = 2 };

struct InjectionVerdict {
  std::string machine;
  std::string fault;
  std::size_t injection_index{0};  // nth injection of this fault (0-based)
  bool correct{false};
  std::string reason;  // human-readable explanation when incorrect
};

struct MissedFault {
  std::string machine;
  std::string fault;
};

struct VerificationOptions {
  /// Reject experiments where a `once` fault never fired although its
  /// expression certainly became true (a missed injection — the failure
  /// mode Figs 3.2/3.3 measure).
  bool strict_missed_once{true};
};

struct VerificationResult {
  std::vector<InjectionVerdict> verdicts;
  std::vector<MissedFault> missed;
  bool all_injections_correct{true};
  /// all_injections_correct && missed is empty (when strict).
  bool accepted{true};
};

VerificationResult verify_experiment(
    const std::vector<const runtime::LocalTimeline*>& timelines,
    const clocksync::AlphaBetaFile& alphabeta,
    const VerificationOptions& options = {});

}  // namespace loki::analysis
