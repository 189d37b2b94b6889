// Compile-once campaign invariants: a reused ExperimentContext must be
// byte-identical to fresh run_experiment calls — for shuffled seeds, for
// every transport design, after a run that threw, across structure changes
// (which force a recompile), and through every runner backend (serial /
// thread pool / process workers / FakeTransport remote).
// Also covers the CompiledStudy compatibility check and the
// GroundTruth::in_state binary-search boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
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

/// election_params under each transport design. PartiallyDistributed also
/// crashes and reboots green's host, and restarts black on the next host
/// after its injected fault crashes it, so the fabric's purge, reboot and
/// restart paths run.
std::vector<std::pair<const char*, ExperimentParams (*)(std::uint64_t)>>
every_design() {
  return {
      {"Centralized",
       [](std::uint64_t seed) {
         ExperimentParams p = election_params(seed);
         p.design = runtime::TransportDesign::Centralized;
         return p;
       }},
      {"Direct",
       [](std::uint64_t seed) {
         ExperimentParams p = election_params(seed);
         p.design = runtime::TransportDesign::Direct;
         return p;
       }},
      {"PartiallyDistributed",
       [](std::uint64_t seed) {
         ExperimentParams p = election_params(seed);
         p.host_crashes.push_back(
             {"hostC", milliseconds(100), milliseconds(60)});
         p.nodes[0].restart.placement =
             runtime::RestartPolicy::Placement::NextHost;
         return p;
       }},
  };
}

TEST(ExperimentContext, ReusedContextMatchesFreshRunsForEveryDesign) {
  // Each run builds its own deployment and a throwing run abandons its
  // queued events mid-experiment: neither may leave residue in the context.
  // One context serves every design with shuffled and repeated seeds, and
  // every seed runs straight after a run whose last node's app factory
  // throws.
  const std::vector<std::uint64_t> seeds = {5, 9, 5, 1};
  runtime::ExperimentContext context;
  int next_host_restarts = 0;
  for (const std::uint64_t seed : seeds) {
    for (const auto& [design, make] : every_design()) {
      ExperimentParams failing = make(seed);
      failing.nodes.back().app_factory =
          []() -> std::unique_ptr<runtime::Application> {
        throw std::runtime_error("app factory fails");
      };
      EXPECT_THROW((void)context.run(failing), std::runtime_error)
          << design << " seed " << seed;

      const ExperimentResult reused = context.run(make(seed));
      EXPECT_EQ(bytes_of(reused), bytes_of(runtime::run_experiment(make(seed))))
          << design << " seed " << seed;
      for (const runtime::TimelineRecord& rec : reused.timelines[0].records)
        if (rec.type == runtime::RecordType::Restart && rec.host == "hostB")
          ++next_host_restarts;
    }
  }
  EXPECT_GT(next_host_restarts, 0) << "black never restarted on hostB";
  EXPECT_EQ(context.recompiles(), 1u);
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
