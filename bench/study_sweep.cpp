// Study-count sweep: what a study boundary costs each runner.
//
// The same 650 Chapter-5-style election experiments (the five fault
// flavours of bench/tab_ch5_campaign.cpp, 130 each) run as one campaign of
// 1, 7 and 26 studies — contiguous, near-equal slices of one experiment
// list — through serial, threads:3 and procs:3. Every layout measures the
// same experiments with the same StudyMeasure, so all nine layouts must
// report the same accept counts and the same measure values, in the same
// order; the sweep exits 1 otherwise. procs:3 forks one fleet and threads:3
// starts one pool per campaign, and both pull study k+1 while study k
// drains, so neither runner's wall time should grow with the study count.
//
//   study_sweep [--reps N] [--bench-json PATH]
//
// Prints the median Campaign::Summary wall time of N interleaved
// repetitions (default 5) per layout, and each runner's 7- and 26-study
// times relative to its 1-study time: the median of the per-repetition
// ratios, so host drift between repetitions cancels out. `--bench-json
// PATH` writes the medians (study_sweep/<runner>/<studies>) and the ratios
// (study_sweep/<runner>/ratio7, .../ratio26) as google-benchmark JSON for
// tools/bench_compare.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/election.hpp"
#include "campaign/campaign.hpp"
#include "common/bench_json.hpp"
#include "measure/study_measure.hpp"

using namespace loki;

namespace {

constexpr int kExperiments = 650;
constexpr int kFlavours = 5;
constexpr int kPerFlavour = kExperiments / kFlavours;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

int node_index(const runtime::ExperimentParams& p, const std::string& nick) {
  for (std::size_t i = 0; i < p.nodes.size(); ++i)
    if (p.nodes[i].nickname == nick) return static_cast<int>(i);
  return -1;
}

/// Experiment `j` of the sweep: flavours 0-2 are the coverage studies of
/// black/green/yellow (xfault1 with an imperfect restart), flavour 3 the
/// correlated gfault2 study, flavour 4 its gfault3 baseline.
runtime::ExperimentParams experiment(int j) {
  const int flavour = j / kPerFlavour;
  const auto k = static_cast<std::uint64_t>(j % kPerFlavour);
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  app.fault_activation_prob = 0.85;
  auto p = apps::election_experiment(
      10'000 * static_cast<std::uint64_t>(flavour + 1) + k, kHosts, kPlacement,
      app);
  if (flavour < 3) {
    const std::string machine = flavour == 0   ? "black"
                                : flavour == 1 ? "green"
                                               : "yellow";
    auto& node = p.nodes[static_cast<std::size_t>(node_index(p, machine))];
    node.fault_spec = spec::parse_fault_spec(
        machine.substr(0, 1) + "fault1 (" + machine + ":LEAD) always\n",
        "sweep");
    node.restart.enabled = true;
    node.restart.delay = milliseconds(60);
    node.restart.max_restarts = 2;
    Rng rng(777 + static_cast<std::uint64_t>(flavour) * 131 + k);
    if (!rng.bernoulli(0.9 - 0.2 * flavour)) node.restart.enabled = false;
  } else if (flavour == 3) {
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "sweep");
    p.nodes[static_cast<std::size_t>(node_index(p, "green"))].fault_spec =
        spec::parse_fault_spec(
            "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
            "sweep");
  } else {
    p.nodes[static_cast<std::size_t>(node_index(p, "green"))].fault_spec =
        spec::parse_fault_spec(
            "gfault3 ((green:FOLLOW) | (green:ELECT)) once\n", "sweep");
  }
  return p;
}

/// One measure for every study: how long black was crashed, and whether
/// green ever crashed — defined for every flavour.
measure::StudyMeasure sweep_measure() {
  const auto total = measure::obs_total_duration(
      true, measure::TimeArg::start_exp(), measure::TimeArg::end_exp());
  measure::StudyMeasure m;
  m.add(measure::subset_default(), measure::parse_predicate("(black, CRASH)"),
        total);
  m.add(measure::subset_default(), measure::parse_predicate("(green, CRASH)"),
        measure::obs_greater(total, 0.0));
  return m;
}

/// The experiment list as `studies` contiguous, near-equal studies.
std::vector<runtime::StudyParams> layout(int studies) {
  std::vector<runtime::StudyParams> out;
  for (int s = 0; s < studies; ++s) {
    const int lo = s * kExperiments / studies;
    const int hi = (s + 1) * kExperiments / studies;
    runtime::StudyParams study;
    study.name = "slice" + std::to_string(s);
    study.experiments = hi - lo;
    study.make_params = [lo](int k) { return experiment(lo + k); };
    out.push_back(std::move(study));
  }
  return out;
}

struct Outcome {
  int accepted{0};
  std::vector<double> values;  // every study's, in campaign order
  double wall_seconds{0.0};
};

Outcome run_layout(const std::string& runner_spec, int studies) {
  const std::vector<runtime::StudyParams> plan = layout(studies);
  auto sink = std::make_shared<campaign::MeasureSink>();
  sink->measure_all(sweep_measure());
  CampaignBuilder builder;
  for (const runtime::StudyParams& study : plan) builder.add(study);
  builder.runner(campaign::parse_runner_spec(runner_spec)).sink(sink);
  const Campaign::Summary summary = builder.build().run();

  Outcome out;
  out.wall_seconds = summary.wall_seconds;
  for (const runtime::StudyParams& study : plan) {
    out.accepted += sink->find(study.name)->accepted;
    const std::vector<double>& values = *sink->values(study.name);
    out.values.insert(out.values.end(), values.begin(), values.end());
  }
  return out;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  std::string bench_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--bench-json" && i + 1 < argc) {
      bench_json = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: study_sweep [--reps N] [--bench-json PATH]\n");
      return 2;
    }
  }
  if (reps < 1) {
    std::fprintf(stderr, "study_sweep: --reps needs a positive count\n");
    return 2;
  }

  const std::vector<std::string> runners = {"serial", "threads:3", "procs:3"};
  const std::vector<int> study_counts = {1, 7, 26};
  // walls[r][c]: every repetition of runner r at study count c. The
  // repetitions interleave every layout, so host drift spreads evenly.
  std::vector<std::vector<std::vector<double>>> walls(
      runners.size(), std::vector<std::vector<double>>(study_counts.size()));
  std::optional<Outcome> reference;  // serial, one study
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < study_counts.size(); ++c) {
      for (std::size_t r = 0; r < runners.size(); ++r) {
        const Outcome out = run_layout(runners[r], study_counts[c]);
        walls[r][c].push_back(out.wall_seconds);
        if (!reference.has_value()) {
          reference = out;
        } else if (out.accepted != reference->accepted ||
                   out.values != reference->values) {
          identical = false;
          std::fprintf(stderr,
                       "study_sweep: %s over %d studies diverges from serial "
                       "over 1 study (accepted %d vs %d)\n",
                       runners[r].c_str(), study_counts[c], out.accepted,
                       reference->accepted);
        }
      }
    }
  }

  std::printf("study sweep: %d election experiments, median of %d runs "
              "(Summary wall, ms)\n",
              kExperiments, reps);
  std::printf("  %-10s", "runner");
  for (const int count : study_counts) std::printf("  %8d st", count);
  std::printf("   vs 1 study (median of per-run ratios)\n");
  std::vector<std::pair<std::string, double>> rows;
  std::vector<std::pair<std::string, double>> ratio_rows;
  for (std::size_t r = 0; r < runners.size(); ++r) {
    std::printf("  %-10s", runners[r].c_str());
    const std::string prefix = "study_sweep/" + runners[r] + "/";
    for (std::size_t c = 0; c < study_counts.size(); ++c) {
      const double wall = median(walls[r][c]);
      rows.emplace_back(prefix + std::to_string(study_counts[c]), wall);
      std::printf("  %8.1f   ", wall * 1e3);
    }
    std::printf("  ");
    for (std::size_t c = 1; c < study_counts.size(); ++c) {
      // Each repetition runs every layout back to back, so its own 1-study
      // run is the baseline its c-study run is least drifted from.
      std::vector<double> ratios;
      ratios.reserve(static_cast<std::size_t>(reps));
      for (int rep = 0; rep < reps; ++rep)
        ratios.push_back(walls[r][c][static_cast<std::size_t>(rep)] /
                         walls[r][0][static_cast<std::size_t>(rep)]);
      const double ratio = median(ratios);
      ratio_rows.emplace_back(prefix + "ratio" + std::to_string(study_counts[c]),
                              ratio);
      std::printf(" %d st %.3f", study_counts[c], ratio);
    }
    std::printf("\n");
  }
  std::printf("  accepted %d of %d; results identical: %s\n",
              reference->accepted, kExperiments,
              identical ? "yes" : "NO - BUG");

  if (!bench_json.empty()) {
    if (!bench::write_bench_json(bench_json, rows, ratio_rows)) {
      std::fprintf(stderr, "study_sweep: cannot write %s\n",
                   bench_json.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s\n", bench_json.c_str());
  }
  return identical ? 0 : 1;
}
