// The complete analysis phase for one experiment (§2.5, §5.7):
// timestamps -> alphabeta -> global timeline -> correctness verdicts ->
// accept/discard, plus the experiment window on the reference clock needed
// by the measure phase's START_EXP / END_EXP macros.
#pragma once

#include <string>
#include <vector>

#include "analysis/global_timeline.hpp"
#include "analysis/verification.hpp"
#include "runtime/experiment.hpp"

namespace loki::analysis {

struct AnalysisOptions {
  /// Reference machine; empty selects the first host of the experiment
  /// (the thesis picks the fastest machine — a policy choice that only
  /// affects numerics, not validity).
  std::string reference;
  VerificationOptions verification{};
};

struct ExperimentAnalysis {
  clocksync::AlphaBetaFile alphabeta;
  GlobalTimeline timeline;
  VerificationResult verification;
  /// Experiment window on the reference clock (ns).
  double start_ref{0.0};
  double end_ref{0.0};
  /// verification.accepted && the run completed without timing out.
  bool accepted{false};
};

ExperimentAnalysis analyze_experiment(const runtime::ExperimentResult& result,
                                      const AnalysisOptions& options = {});

/// The fault-injection results file of §5.7: one verdict per line,
///   <machine> <fault> <injection_index> <correct|incorrect> [<reason>]
/// followed by `missed <machine> <fault>` lines.
std::string serialize_verdicts(const VerificationResult& v);

}  // namespace loki::analysis
