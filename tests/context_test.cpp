// Compile-once campaign invariants: a reused ExperimentContext must be
// byte-identical to fresh run_experiment calls — for shuffled seeds, across
// structure changes (which force a recompile), and through every runner
// backend (serial / thread pool / process workers / FakeTransport remote).
// Also covers the CompiledStudy compatibility check and the
// GroundTruth::in_state binary-search boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "runtime/compiled_study.hpp"
#include "runtime/experiment_context.hpp"
#include "runtime/serialize.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

/// Election experiment with a live fault + restart — specs are re-parsed on
/// every call, so reuse must go through the deep spec-equality check, not
/// pointer identity.
ExperimentParams election_params(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  app.fault_activation_prob = 0.85;
  auto p = apps::election_experiment(seed, kHosts, kPlacement, app);
  p.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
  p.nodes[0].restart.enabled = true;
  p.nodes[0].restart.delay = milliseconds(60);
  return p;
}

/// A structurally different study: two nodes on two hosts.
ExperimentParams small_params(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(200);
  return apps::election_experiment(seed, {"hostA", "hostB"},
                                   {{"black", "hostA"}, {"green", "hostB"}},
                                   app);
}

std::vector<std::uint8_t> bytes_of(const ExperimentResult& result) {
  return runtime::encode_experiment_result(result);
}

// --- GroundTruth::in_state ---------------------------------------------------

TEST(GroundTruth, InStateBinarySearchBoundaries) {
  runtime::GroundTruth truth;
  truth.state_seq_of("m") = {{SimTime{100}, "A"},
                             {SimTime{200}, "B"},
                             {SimTime{200}, "C"},  // same-instant re-entry
                             {SimTime{300}, "D"}};

  EXPECT_FALSE(truth.in_state("m", "A", SimTime{99}));   // before first entry
  EXPECT_TRUE(truth.in_state("m", "A", SimTime{100}));   // exact enter time
  EXPECT_TRUE(truth.in_state("m", "A", SimTime{199}));   // held until next
  // At a tie the *last* entry at that instant is in force (matches the
  // linear scan this replaced: it kept overwriting through equal times).
  EXPECT_TRUE(truth.in_state("m", "C", SimTime{200}));
  EXPECT_FALSE(truth.in_state("m", "B", SimTime{200}));
  EXPECT_TRUE(truth.in_state("m", "C", SimTime{299}));
  EXPECT_TRUE(truth.in_state("m", "D", SimTime{300}));
  EXPECT_TRUE(truth.in_state("m", "D", SimTime{100'000}));  // holds forever
  EXPECT_FALSE(truth.in_state("m", "A", SimTime{300}));
  EXPECT_FALSE(truth.in_state("other", "A", SimTime{200}));  // unknown machine
}

TEST(GroundTruth, InStateEmptySequence) {
  runtime::GroundTruth truth;
  truth.state_seq_of("m") = {};
  EXPECT_FALSE(truth.in_state("m", "A", SimTime{0}));
}

// --- context reuse vs fresh run_experiment -----------------------------------

TEST(ExperimentContext, ReusedContextMatchesFreshRunsShuffledSeeds) {
  // Shuffled and repeated seeds: reset must leave no residue whatsoever —
  // a repeated seed later in the sequence must reproduce its earlier bytes.
  const std::vector<std::uint64_t> seeds = {7, 3, 11, 3, 5, 1, 9, 7};
  runtime::ExperimentContext context;
  std::map<std::uint64_t, std::vector<std::uint8_t>> first_bytes;
  for (const std::uint64_t seed : seeds) {
    const ExperimentParams params = election_params(seed);
    const std::vector<std::uint8_t> reused = bytes_of(context.run(params));
    const std::vector<std::uint8_t> fresh =
        bytes_of(runtime::run_experiment(election_params(seed)));
    EXPECT_EQ(reused, fresh) << "seed " << seed;
    const auto [it, inserted] = first_bytes.emplace(seed, reused);
    if (!inserted) {
      EXPECT_EQ(it->second, reused) << "repeat of seed " << seed;
    }
  }
  EXPECT_EQ(context.runs(), seeds.size());
  EXPECT_EQ(context.recompiles(), 1u)
      << "equal specs must reuse the compiled study";
}

TEST(ExperimentContext, StructureChangeRecompilesAndStaysIdentical) {
  runtime::ExperimentContext context;
  const auto check = [&](const ExperimentParams& params) {
    EXPECT_EQ(bytes_of(context.run(params)),
              bytes_of(runtime::run_experiment(params)));
  };
  check(election_params(5));
  check(small_params(6));     // different node list -> recompile
  check(election_params(5));  // back again -> recompile, same bytes as run 1
  EXPECT_EQ(context.recompiles(), 3u);

  // Same nodes but a different fault expression is a structure change too.
  ExperimentParams tweaked = election_params(5);
  tweaked.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:FOLLOW) once\n", "t");
  check(tweaked);
  EXPECT_EQ(context.recompiles(), 4u);
}

TEST(ExperimentContext, SharedCompiledStudyAcrossContexts) {
  const ExperimentParams params = election_params(21);
  const auto compiled = runtime::CompiledStudy::compile(params);
  EXPECT_TRUE(compiled->compatible_with(election_params(99)));
  EXPECT_FALSE(compiled->compatible_with(small_params(99)));

  runtime::ExperimentContext a(compiled);
  runtime::ExperimentContext b(compiled);
  const auto want = bytes_of(runtime::run_experiment(params));
  EXPECT_EQ(bytes_of(a.run(params)), want);
  EXPECT_EQ(bytes_of(b.run(params)), want);
  EXPECT_EQ(a.recompiles(), 0u);
  EXPECT_EQ(b.recompiles(), 0u);
  EXPECT_EQ(a.compiled().get(), compiled.get());
}

// --- runner-level property: every backend == serial --------------------------

runtime::StudyParams property_study(int experiments) {
  runtime::StudyParams study;
  study.name = "context-property";
  study.experiments = experiments;
  study.make_params = [](int k) {
    return election_params(31'000 + static_cast<std::uint64_t>(k));
  };
  return study;
}

/// The full sink event sequence (results as encoded bytes) of one study
/// through one runner.
std::vector<std::vector<std::uint8_t>> run_collected(
    std::shared_ptr<campaign::Runner> runner, const runtime::StudyParams& study) {
  std::vector<std::vector<std::uint8_t>> results;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([&](const campaign::StudyInfo&, int index,
                       const ExperimentResult& result) {
    EXPECT_EQ(index, static_cast<int>(results.size())) << "emit order";
    results.push_back(runtime::encode_experiment_result(result));
  });
  CampaignBuilder builder;
  builder.add(study).runner(std::move(runner)).sink(sink);
  builder.build().run();
  return results;
}

TEST(ExperimentContext, EveryRunnerBackendMatchesSerial) {
  const auto study = property_study(8);
  const auto serial = run_collected(campaign::parse_runner_spec("serial"), study);
  ASSERT_EQ(serial.size(), 8u);

  EXPECT_EQ(run_collected(campaign::parse_runner_spec("threads:4"), study),
            serial);
  EXPECT_EQ(run_collected(campaign::parse_runner_spec("procs:2"), study),
            serial);
  EXPECT_EQ(run_collected(
                std::make_shared<campaign::RemoteRunner>(
                    std::make_shared<campaign::FakeTransport>(2)),
                study),
            serial);
}

TEST(ExperimentContext, DeploymentPoolReusedInSteadyState) {
  // The deployment/daemon pool is the last per-experiment heap churn: built
  // on the first run of a study, reset in place for every later run. In
  // steady state (same structure) the build counter must stay flat while
  // runs() climbs — and the bytes must still match the fresh path, which
  // the identity tests above already pin down.
  runtime::ExperimentContext context;
  (void)context.run(election_params(1));
  const std::uint64_t after_first = context.deployment_builds();
  EXPECT_GT(after_first, 0u);
  for (std::uint64_t seed = 2; seed <= 8; ++seed)
    (void)context.run(election_params(seed));
  EXPECT_EQ(context.deployment_builds(), after_first)
      << "steady-state runs must reuse the pooled deployment objects";
  EXPECT_EQ(context.runs(), 8u);
  EXPECT_EQ(context.recompiles(), 1u);

  // A structure change recompiles, which drops the pool (the pooled objects
  // reference the old study's dictionary) and rebuilds on the next run.
  (void)context.run(small_params(9));
  EXPECT_GT(context.deployment_builds(), after_first);
  EXPECT_EQ(context.recompiles(), 2u);
}

TEST(ExperimentContext, SerialRunnerReusesOneCompileAcrossAStudy) {
  // One run() over a two-study plan whose second study has a gap (a cached
  // index the runner never sees): one context serves every study, and each
  // emitted experiment must agree with the one-shot path, in plan order.
  campaign::SerialRunner runner;
  std::vector<runtime::StudyParams> studies{property_study(3),
                                            property_study(4)};
  studies[1].name = "context-property-2";
  studies[1].make_params = [](int k) {
    return election_params(32'000 + static_cast<std::uint64_t>(k));
  };
  const std::vector<campaign::StudyPlan> plan{{0, {{0, 3}}},
                                              {1, {{0, 1}, {2, 4}}}};
  std::size_t pulled = 0;
  std::vector<std::pair<int, int>> order;
  std::vector<std::vector<std::uint8_t>> got;
  runner.run(
      studies,
      [&]() -> std::optional<campaign::StudyPlan> {
        if (pulled == plan.size()) return std::nullopt;
        return plan[pulled++];
      },
      [&](int s, int k, ExperimentResult&& r) {
        order.emplace_back(s, k);
        got.push_back(bytes_of(r));
      });
  ASSERT_EQ(order, (std::vector<std::pair<int, int>>{
                       {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}}));
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(got[i], bytes_of(runtime::run_experiment(
                          studies[static_cast<std::size_t>(order[i].first)]
                              .make_params(order[i].second))));
}

}  // namespace
}  // namespace loki
