#include "analysis/pipeline.hpp"

#include "util/error.hpp"

namespace loki::analysis {

ExperimentAnalysis analyze_experiment(const runtime::ExperimentResult& result,
                                      const AnalysisOptions& options) {
  ExperimentAnalysis out;

  // Host order is the result's host table (params.hosts order).
  const std::vector<std::string>& hosts = result.hosts;
  LOKI_REQUIRE(!hosts.empty(), "experiment result has no hosts");
  const std::string reference =
      options.reference.empty() ? hosts.front() : options.reference;

  out.alphabeta =
      clocksync::compute_alphabeta(result.sync_samples, hosts, reference);

  std::vector<const runtime::LocalTimeline*> timelines;
  timelines.reserve(result.timelines.size());
  for (const runtime::LocalTimeline& tl : result.timelines)
    timelines.push_back(&tl);

  out.timeline = build_global_timeline(timelines, out.alphabeta);
  out.verification =
      verify_experiment(timelines, out.alphabeta, options.verification);

  // The reference machine's own readings ARE the global timeline's axis.
  out.start_ref = static_cast<double>(result.start_local_of(reference).ns);
  out.end_ref = static_cast<double>(result.end_local_of(reference).ns);

  out.accepted = out.verification.accepted && result.completed;
  return out;
}

std::string serialize_verdicts(const VerificationResult& v) {
  // Size the buffer once and append in place: the operator+ chains this
  // used to build allocated one temporary string per fragment per verdict.
  std::size_t bytes = 0;
  for (const InjectionVerdict& verdict : v.verdicts)
    bytes += verdict.machine.size() + verdict.fault.size() +
             verdict.reason.size() + 32;
  for (const MissedFault& m : v.missed)
    bytes += m.machine.size() + m.fault.size() + 16;

  std::string out;
  out.reserve(bytes);
  for (const InjectionVerdict& verdict : v.verdicts) {
    out.append(verdict.machine);
    out.push_back(' ');
    out.append(verdict.fault);
    out.push_back(' ');
    out.append(std::to_string(verdict.injection_index));
    out.append(verdict.correct ? " correct" : " incorrect");
    if (!verdict.reason.empty()) {
      out.append(" # ");
      out.append(verdict.reason);
    }
    out.push_back('\n');
  }
  for (const MissedFault& m : v.missed) {
    out.append("missed ");
    out.append(m.machine);
    out.push_back(' ');
    out.append(m.fault);
    out.push_back('\n');
  }
  return out;
}

}  // namespace loki::analysis
