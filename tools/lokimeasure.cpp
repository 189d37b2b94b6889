// lokimeasure — the measure-phase CLI, three modes:
//
// 1. Evaluate a predicate over on-disk timeline artifacts (§4.3):
//      lokimeasure <AlphabetaFile> <predicate> <start_ms> <end_ms>
//                  <LocalTimelineFile>...
//
// 2. Run the built-in demo campaign (a Chapter-5-style election coverage
//    study) through the campaign facade and print a deterministic analysis
//    report (stdout carries only seed-determined values; cache/runner
//    diagnostics go to stderr so re-runs are byte-comparable):
//      lokimeasure --campaign
//                  [--runner serial|threads:N|procs:N|remote:HOSTFILE]
//                  [--cache DIR] [--journal FILE | --resume FILE]
//                  [--journal-group N] [--experiments N] [--seed S]
//                  [--status]
//
// 3. Worker: speak the worker frame protocol (Hello/Lease/ResultBatch/...,
//    runtime/serialize.hpp) on stdin/stdout — what RemoteRunner's
//    SshTransport workers run. The study arrives inside the Hello frame:
//      lokimeasure --worker --serve
#include <cstdio>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/global_timeline.hpp"
#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "measure/observation.hpp"
#include "measure/predicate.hpp"
#include "measure/study_measure.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"

namespace {

using namespace loki;

constexpr const char* kUsage =
    "usage: lokimeasure <AlphabetaFile> <predicate> <start_ms> <end_ms> "
    "<LocalTimelineFile>...\n"
    "       lokimeasure --campaign "
    "[--runner serial|threads:N|procs:N|remote:HOSTFILE] "
    "[--cache DIR]\n"
    "                   [--journal FILE | --resume FILE] [--journal-group N] "
    "[--experiments N] [--seed S] [--status]\n"
    "       lokimeasure --worker --serve\n";

std::string flag_value(const std::vector<std::string>& args, std::size_t& i,
                       const char* flag) {
  if (++i >= args.size())
    throw ConfigError(std::string(flag) + " needs a value");
  return args[i];
}

/// Numeric flag values are parsed whole: a trailing suffix ("2abc"), a
/// sign on an unsigned flag ("-1") or an out-of-range value is a
/// ConfigError naming the flag, never a truncated or wrapped number.
[[noreturn]] void bad_number(const char* flag, const std::string& value) {
  throw ConfigError(std::string(flag) + " needs a number, got '" + value +
                    "'");
}

int int_arg(const char* flag, const std::string& value) {
  const std::optional<std::int64_t> v = parse_i64(value);
  if (!v.has_value() || *v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max())
    bad_number(flag, value);
  return static_cast<int>(*v);
}

std::uint64_t u64_arg(const char* flag, const std::string& value) {
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v.has_value()) bad_number(flag, value);
  return *v;
}

/// The demo campaign: black's leader fault with restarts, the §5.8
/// coverage measure. Deterministic in (seed, experiments).
runtime::StudyParams demo_study(std::uint64_t seed, int experiments) {
  runtime::StudyParams study;
  study.name = "demo-coverage";
  study.experiments = experiments;
  study.make_params = [seed](int k) {
    apps::ElectionParams app;
    app.run_for = milliseconds(700);
    app.fault_activation_prob = 0.85;
    auto p = apps::election_experiment(
        seed + static_cast<std::uint64_t>(k),
        {"hostA", "hostB", "hostC"},
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    for (auto& node : p.nodes) {
      if (node.nickname != "black") continue;
      node.fault_spec =
          spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "demo");
      node.restart.enabled = true;
      node.restart.delay = milliseconds(60);
      node.restart.max_restarts = 2;
    }
    return p;
  };
  return study;
}

measure::StudyMeasure demo_measure() {
  measure::StudyMeasure m;
  m.add(measure::subset_default(), measure::parse_predicate("(black, CRASH)"),
        measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                    measure::TimeArg::end_exp()));
  m.add(measure::subset_greater(0.0),
        measure::parse_predicate("(black, RESTART_SM)"),
        measure::obs_greater(
            measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                        measure::TimeArg::end_exp()),
            0.0));
  return m;
}

int run_campaign_mode(const std::vector<std::string>& args) {
  std::string runner_spec = "serial";
  std::string cache_dir;
  std::string journal_path;
  bool resume = false;
  std::optional<int> journal_group;
  bool status = false;
  int experiments = 12;
  std::uint64_t seed = 9000;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--experiments")
      experiments =
          int_arg("--experiments", flag_value(args, i, "--experiments"));
    else if (args[i] == "--seed")
      seed = u64_arg("--seed", flag_value(args, i, "--seed"));
    else if (args[i] == "--runner")
      runner_spec = flag_value(args, i, "--runner");
    else if (args[i] == "--cache")
      cache_dir = flag_value(args, i, "--cache");
    else if (args[i] == "--journal") {
      journal_path = flag_value(args, i, "--journal");
      resume = false;
    } else if (args[i] == "--resume") {
      journal_path = flag_value(args, i, "--resume");
      resume = true;
    } else if (args[i] == "--journal-group")
      journal_group = int_arg("--journal-group",
                              flag_value(args, i, "--journal-group"));
    else if (args[i] == "--status")
      status = true;
    else
      throw ConfigError("unknown --campaign option: " + args[i]);
  }
  if (!journal_path.empty() && cache_dir.empty())
    throw ConfigError(
        "--journal/--resume requires --cache DIR: resume replays journaled "
        "indices from the cache");
  // A flag that tunes another one does nothing alone: refuse it rather than
  // run a campaign the user did not ask for.
  if (journal_group.has_value() && journal_path.empty())
    throw ConfigError("--journal-group requires --journal or --resume");

  apps::register_builtin_apps();
  const runtime::StudyParams study = demo_study(seed, experiments);

  auto sink = std::make_shared<campaign::MeasureSink>();
  sink->measure(study.name, demo_measure());
  sink->on_analysis([](const campaign::StudyInfo&, int index,
                       const analysis::ExperimentAnalysis& analysis) {
    std::printf("experiment %2d: accepted=%d events=%zu\n", index,
                analysis.accepted ? 1 : 0, analysis.timeline.events.size());
  });

  std::shared_ptr<campaign::Runner> runner =
      campaign::parse_runner_spec(runner_spec);
  CampaignBuilder builder;
  builder.add(study).runner(runner).sink(sink);
  // The live fleet view is stderr-only, like every nondeterministic
  // diagnostic: stdout stays byte-comparable across runs.
  if (status)
    builder.sink(std::make_shared<campaign::StatusSink>(runner, stderr));
  std::shared_ptr<campaign::ResultCache> cache;
  if (!cache_dir.empty()) {
    cache = std::make_shared<campaign::ResultCache>(cache_dir);
    builder.cache(cache);
  }
  if (!journal_path.empty()) {
    if (resume)
      builder.resume(journal_path);
    else
      builder.journal(journal_path, seed);
    if (journal_group.has_value()) builder.journal_group(*journal_group);
  }
  const Campaign::Summary summary = builder.build().run();

  const auto* stats = sink->find(study.name);
  const auto* values = sink->values(study.name);
  std::printf("study %s: experiments=%d accepted=%d crashed=%zu\n",
              study.name.c_str(), stats->total, stats->accepted,
              values ? values->size() : 0);
  double coverage = 0.0;
  if (values && !values->empty()) {
    for (const double v : *values) coverage += v;
    coverage /= static_cast<double>(values->size());
  }
  std::printf("coverage=%.6f\n", coverage);

  // Diagnostics that legitimately differ between identical runs (timing,
  // cache temperature) go to stderr only.
  std::fprintf(stderr, "runner: %s, wall %.2fs\n", runner_spec.c_str(),
               summary.wall_seconds);
  if (cache)
    std::fprintf(stderr,
                 "cache: hits=%llu misses=%llu stores=%llu corrupt=%llu\n",
                 static_cast<unsigned long long>(cache->stats().hits),
                 static_cast<unsigned long long>(cache->stats().misses),
                 static_cast<unsigned long long>(cache->stats().stores),
                 static_cast<unsigned long long>(cache->stats().corrupt));
  std::fprintf(stderr, "cache_hits=%d of %d\n", summary.cache_hits,
               summary.experiments);
  if (summary.replayed > 0)
    std::fprintf(stderr, "resume: replayed=%d of %d\n", summary.replayed,
                 summary.experiments);
  if (summary.requeue_events > 0 || summary.workers_lost > 0)
    std::fprintf(stderr,
                 "fault recovery: requeue_events=%d requeued_indices=%d "
                 "workers_lost=%d\n",
                 summary.requeue_events, summary.requeued_indices,
                 summary.workers_lost);
  return 0;
}

int run_worker_mode(const std::vector<std::string>& args) {
  if (args.size() != 1 || args[0] != "--serve")
    throw ConfigError(
        "--worker takes only --serve: the study arrives in the Hello frame");
  apps::register_builtin_apps();
  campaign::FdFrameChannel channel(STDIN_FILENO, STDOUT_FILENO);
  // stdout carries frames only; everything diagnostic goes to stderr.
  campaign::serve_worker(channel, nullptr);
  return 0;
}

int run_measure_mode(int argc, char** argv) {
  if (argc < 6) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const auto ab = clocksync::parse_alphabeta(read_file(argv[1]), argv[1]);
  const auto pred = measure::parse_predicate(argv[2]);
  const auto start_ms = parse_f64(argv[3]);
  const auto end_ms = parse_f64(argv[4]);
  if (!start_ms || !end_ms || *end_ms <= *start_ms) {
    std::fprintf(stderr, "lokimeasure: bad window\n");
    return 2;
  }

  std::vector<runtime::LocalTimeline> timelines;
  for (int i = 5; i < argc; ++i)
    timelines.push_back(runtime::parse_local_timeline(read_file(argv[i]), argv[i]));
  std::vector<const runtime::LocalTimeline*> ptrs;
  for (const auto& tl : timelines) ptrs.push_back(&tl);

  // The analysis shape the measure phase consumes, reconstructed from the
  // on-disk artifacts instead of a live ExperimentResult.
  analysis::ExperimentAnalysis analysis;
  analysis.alphabeta = ab;
  analysis.timeline = analysis::build_global_timeline(ptrs, ab);
  analysis.start_ref = *start_ms * 1e6;
  analysis.end_ref = *end_ms * 1e6;
  analysis.accepted = true;

  const auto evaluate = [&](measure::ObservationFunction obs) {
    measure::StudyMeasure m;
    m.add(measure::subset_default(), pred, std::move(obs));
    return *m.apply(analysis);
  };

  std::printf("predicate: %s\n", pred->to_string().c_str());
  std::printf("total_duration(T) = %.3f ms\n",
              evaluate(measure::obs_total_duration(
                  true, measure::TimeArg::start_exp(),
                  measure::TimeArg::end_exp())));
  std::printf("count(U, B)       = %.0f\n",
              evaluate(measure::obs_count(
                  measure::Edge::Up, measure::Kind::Both,
                  measure::TimeArg::start_exp(),
                  measure::TimeArg::end_exp())));
  std::printf("outcome(mid)      = %.0f\n",
              evaluate(measure::obs_outcome(
                  measure::TimeArg::literal((*end_ms - *start_ms) / 2.0))));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  try {
    const std::string mode = argv[1];
    std::vector<std::string> rest;
    for (int i = 2; i < argc; ++i) rest.emplace_back(argv[i]);
    if (mode == "--campaign") return run_campaign_mode(rest);
    if (mode == "--worker") return run_worker_mode(rest);
    return run_measure_mode(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lokimeasure: %s\n", e.what());
    return 1;
  }
}
