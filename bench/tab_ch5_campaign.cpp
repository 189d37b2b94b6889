// Regenerates the Chapter 5 campaign end to end:
//   studies 1-3 — coverage of an error in black/green/yellow as leader
//                 (bfault1/gfault1/yfault1, §5.4, first evaluation);
//   overall coverage as the stratified weighted measure
//                 c = (wb*cb + wg*cg + wy*cy) / (wb+wg+wy)   (§5.8);
//   studies 4-5 — correlation between a leader crash and a simultaneous
//                 error in a follower (gfault2 vs gfault3, second evaluation).
//
// Driven through the campaign facade: experiments are deterministic in
// their seed, so parallel runners fan them out without changing a single
// number. `tab_ch5_campaign [runner]` selects the backend with the shared
// runner grammar — serial | threads:N | procs:N (default threads:4; a bare
// integer keeps working). A closing section times the same study on all
// three backends and checks every value matches; `--bench-json PATH` also
// records those timings in google-benchmark JSON so the perf CI job can
// trend them with tools/bench_compare.py.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/election.hpp"
#include "common/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "measure/campaign_measure.hpp"
#include "measure/study_measure.hpp"

using namespace loki;

namespace {

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

runtime::ExperimentParams base_params(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  app.fault_activation_prob = 0.85;  // faults may stay dormant (§1.1)
  return apps::election_experiment(seed, kHosts, kPlacement, app);
}

int node_index(const runtime::ExperimentParams& p, const std::string& nick) {
  for (std::size_t i = 0; i < p.nodes.size(); ++i)
    if (p.nodes[i].nickname == nick) return static_cast<int>(i);
  return -1;
}

/// Study k in {1,2,3}: xfault1 (x:LEAD) always + imperfect restart.
runtime::StudyParams coverage_study(const std::string& machine, int study_no,
                                    double restart_reliability) {
  runtime::StudyParams study;
  study.name = "study" + std::to_string(study_no) + "-" + machine;
  study.experiments = 40;
  study.make_params = [machine, study_no, restart_reliability](int k) {
    auto p = base_params(10'000 * static_cast<std::uint64_t>(study_no) +
                         static_cast<std::uint64_t>(k));
    auto& node = p.nodes[static_cast<std::size_t>(node_index(p, machine))];
    node.fault_spec = spec::parse_fault_spec(
        machine.substr(0, 1) + "fault1 (" + machine + ":LEAD) always\n", "ch5");
    node.restart.enabled = true;
    node.restart.delay = milliseconds(60);
    node.restart.max_restarts = 2;
    // Imperfect recovery: some crashes are never restarted, so coverage < 1.
    Rng rng(777 + static_cast<std::uint64_t>(study_no) * 131 +
            static_cast<std::uint64_t>(k));
    if (!rng.bernoulli(restart_reliability)) node.restart.enabled = false;
    return p;
  };
  return study;
}

/// Coverage study measure (§5.8): 1 if the machine crashed and was
/// restarted, 0 if it crashed and was not; filtered out if it never crashed.
measure::StudyMeasure coverage_measure(const std::string& machine) {
  measure::StudyMeasure m;
  m.add(measure::subset_default(),
        measure::parse_predicate("(" + machine + ", CRASH)"),
        measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                    measure::TimeArg::end_exp()));
  m.add(measure::subset_greater(0.0),
        measure::parse_predicate("(" + machine + ", RESTART_SM)"),
        measure::obs_greater(
            measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                        measure::TimeArg::end_exp()),
            0.0));
  return m;
}

struct StudyOutcome {
  int total{0};
  int accepted{0};
  std::vector<double> values;
  double wall_seconds{0.0};
};

std::string g_runner_spec = "threads:4";

/// One study through the facade: the MeasureSink analyzes and measures each
/// experiment as it completes, so nothing but the final values is retained.
StudyOutcome run_study(const runtime::StudyParams& study,
                       const measure::StudyMeasure& m,
                       const std::string& runner_spec) {
  auto sink = std::make_shared<campaign::MeasureSink>();
  sink->measure(study.name, m);
  Campaign campaign = CampaignBuilder()
                          .add(study)
                          .runner(campaign::parse_runner_spec(runner_spec))
                          .sink(sink)
                          .build();
  const Campaign::Summary summary = campaign.run();

  StudyOutcome out;
  const auto* stats = sink->find(study.name);
  out.total = stats->total;
  out.accepted = stats->accepted;
  out.values = *sink->values(study.name);
  out.wall_seconds = summary.wall_seconds;
  return out;
}

StudyOutcome run_study(const runtime::StudyParams& study,
                       const measure::StudyMeasure& m) {
  return run_study(study, m, g_runner_spec);
}

std::string g_bench_json_path;

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-json" && i + 1 < argc) {
      g_bench_json_path = argv[++i];
    } else {
      g_runner_spec = arg;
    }
  }
  std::printf("Chapter 5 campaign - leader election, 3 machines, 3 hosts\n");
  try {
    std::printf("runner: %s\n\n",
                campaign::parse_runner_spec(g_runner_spec)->name().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_ch5_campaign: %s\n", e.what());
    return 2;
  }

  // --- Evaluation 1: coverage (studies 1-3 + stratified weighted) ----------
  const double reliability[3] = {0.9, 0.7, 0.5};
  const double weights[3] = {3.0, 2.0, 1.0};  // typical fault occurrence rates
  const char* machines[3] = {"black", "green", "yellow"};

  std::vector<measure::StudySample> samples;
  double coverages[3] = {0, 0, 0};
  std::printf("%-18s %-12s %-10s %-10s %-10s %s\n", "study", "experiments",
              "accepted", "crashed", "coverage", "std-err");
  for (int i = 0; i < 3; ++i) {
    const auto study = coverage_study(machines[i], i + 1, reliability[i]);
    const auto outcome = run_study(study, coverage_measure(machines[i]));
    const auto moments = measure::summarize(outcome.values);
    coverages[i] = moments.mean;
    samples.push_back({study.name, outcome.values});
    std::printf("%-18s %-12d %-10d %-10zu %-10.3f %.3f\n", study.name.c_str(),
                outcome.total, outcome.accepted, outcome.values.size(),
                moments.mean, measure::mean_std_error(moments));
  }

  const auto stratified = measure::stratified_weighted_measure(
      samples, {weights[0], weights[1], weights[2]});
  const double closed_form =
      (weights[0] * coverages[0] + weights[1] * coverages[1] +
       weights[2] * coverages[2]) /
      (weights[0] + weights[1] + weights[2]);
  std::printf("\noverall coverage, stratified weighted (w = 3:2:1): %.3f\n",
              stratified.moments.mean);
  std::printf("closed-form check  (wb*cb+wg*cg+wy*cy)/(wb+wg+wy): %.3f\n",
              closed_form);
  std::printf("skewness beta1 %.3f, kurtosis beta2 %.3f, 95th percentile %.3f\n",
              stratified.moments.beta1, stratified.moments.beta2,
              stratified.percentile(0.95));

  // --- Evaluation 2: leader-crash / follower-error correlation --------------
  // Study 4: bfault1 + gfault2 ((black:CRASH) & (green:FOLLOW|ELECT)) once.
  runtime::StudyParams study4;
  study4.name = "study4-correlated";
  study4.experiments = 40;
  study4.make_params = [](int k) {
    auto p = base_params(40'000 + static_cast<std::uint64_t>(k));
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "ch5");
    auto& green = p.nodes[static_cast<std::size_t>(node_index(p, "green"))];
    green.fault_spec = spec::parse_fault_spec(
        "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
        "ch5");
    return p;
  };
  // Fraction of experiments with a black crash where gfault2 crashed green.
  measure::StudyMeasure m4;
  m4.add(measure::subset_default(), measure::parse_predicate("(black, CRASH)"),
         measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                     measure::TimeArg::end_exp()));
  m4.add(measure::subset_greater(0.0), measure::parse_predicate("(green, CRASH)"),
         measure::obs_greater(
             measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                         measure::TimeArg::end_exp()),
             0.0));
  const auto out4 = run_study(study4, m4);
  const auto mom4 = measure::summarize(out4.values);

  // Study 5: gfault3 ((green:FOLLOW) | (green:ELECT)) once — no leader crash.
  runtime::StudyParams study5;
  study5.name = "study5-baseline";
  study5.experiments = 40;
  study5.make_params = [](int k) {
    auto p = base_params(50'000 + static_cast<std::uint64_t>(k));
    auto& green = p.nodes[static_cast<std::size_t>(node_index(p, "green"))];
    green.fault_spec = spec::parse_fault_spec(
        "gfault3 ((green:FOLLOW) | (green:ELECT)) once\n", "ch5");
    return p;
  };
  measure::StudyMeasure m5;
  m5.add(measure::subset_default(), measure::parse_predicate("(green, CRASH)"),
         measure::obs_greater(
             measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                         measure::TimeArg::end_exp()),
             0.0));
  const auto out5 = run_study(study5, m5);
  const auto mom5 = measure::summarize(out5.values);

  std::printf("\ncorrelation evaluation (gfault2 vs gfault3):\n");
  std::printf("%-44s %-10s %-8s %s\n", "measure", "accepted", "n", "value");
  std::printf("%-44s %-10d %-8zu %.3f\n",
              "P[green error | leader crashed] (study 4)", out4.accepted,
              out4.values.size(), mom4.mean);
  std::printf("%-44s %-10d %-8zu %.3f\n",
              "P[green error | no leader crash] (study 5)", out5.accepted,
              out5.values.size(), mom5.mean);
  std::printf(
      "\nexpected shape: both error rates near the configured activation "
      "probability\n(injected faults behave the same with or without a "
      "concurrent leader crash\nin this protocol - the point of the "
      "comparison is the measurement method).\n");

  // --- Parallel execution check --------------------------------------------
  // The same study on every backend: wall clock differs, no value may.
  const auto study1 = coverage_study("black", 1, reliability[0]);
  const auto serial = run_study(study1, coverage_measure("black"), "serial");
  const auto threaded =
      run_study(study1, coverage_measure("black"), "threads:4");
  const auto sharded = run_study(study1, coverage_measure("black"), "procs:4");
  const bool identical = serial.values == threaded.values &&
                         serial.values == sharded.values &&
                         serial.accepted == threaded.accepted &&
                         serial.accepted == sharded.accepted;
  const auto speedup = [&](double wall) {
    return wall > 0 ? serial.wall_seconds / wall : 0.0;
  };
  std::printf("\nserial vs threads(4) vs procs(4), study1 (%d experiments):\n",
              study1.experiments);
  std::printf("  serial:           %.2f s wall\n", serial.wall_seconds);
  std::printf("  thread-pool(4):   %.2f s wall  (speedup %.2fx)\n",
              threaded.wall_seconds, speedup(threaded.wall_seconds));
  std::printf("  procs(4):         %.2f s wall  (speedup %.2fx)\n",
              sharded.wall_seconds, speedup(sharded.wall_seconds));
  std::printf("  results identical: %s\n", identical ? "yes" : "NO - BUG");

  if (!g_bench_json_path.empty()) {
    if (bench::write_bench_json(
            g_bench_json_path,
            {{"campaign_study1/serial", serial.wall_seconds},
             {"campaign_study1/threads:4", threaded.wall_seconds},
             {"campaign_study1/procs:4", sharded.wall_seconds}}))
      std::fprintf(stderr, "wrote %s\n", g_bench_json_path.c_str());
    else
      std::fprintf(stderr, "tab_ch5_campaign: cannot write %s\n",
                   g_bench_json_path.c_str());
  }
  return identical ? 0 : 1;
}
