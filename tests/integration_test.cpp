// End-to-end tests: runtime phase + analysis phase + measure phase on the
// real applications, with the simulator's ground truth as the oracle.
#include <gtest/gtest.h>

#include "analysis/pipeline.hpp"
#include "apps/election.hpp"
#include "apps/kvstore.hpp"
#include "apps/token_ring.hpp"
#include "campaign/campaign.hpp"
#include "measure/campaign_measure.hpp"
#include "measure/study_measure.hpp"
#include "runtime/experiment.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

ExperimentParams election_params(std::uint64_t seed,
                                 Duration run_for = milliseconds(600)) {
  apps::ElectionParams app;
  app.run_for = run_for;
  return apps::election_experiment(seed, kHosts, kPlacement, app);
}

TEST(ElectionE2E, CompletesAndElectsExactlyOneLeader) {
  const ExperimentResult r = runtime::run_experiment(election_params(1));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.timed_out);
  int leaders = 0;
  for (const auto& seq : r.truth.state_seq) {
    for (const auto& [t, s] : seq)
      if (s == "LEAD") ++leaders;
  }
  EXPECT_EQ(leaders, 1) << "exactly one node should win the election";
  // All three produced local timelines with state changes.
  EXPECT_EQ(r.timelines.size(), 3u);
  for (const auto& tl : r.timelines) EXPECT_GE(tl.records.size(), 3u);
}

TEST(ElectionE2E, DeterministicForSameSeed) {
  const ExperimentResult a = runtime::run_experiment(election_params(7));
  const ExperimentResult b = runtime::run_experiment(election_params(7));
  ASSERT_EQ(a.timelines.size(), b.timelines.size());
  for (const auto& tl : a.timelines) {
    const auto& tl2 = b.timeline_of(tl.nickname);
    ASSERT_EQ(tl.records.size(), tl2.records.size());
    for (std::size_t i = 0; i < tl.records.size(); ++i)
      EXPECT_EQ(tl.records[i].time.ns, tl2.records[i].time.ns);
  }
  EXPECT_EQ(a.truth.injections.size(), b.truth.injections.size());
}

TEST(ElectionE2E, FaultOnLeaderFiresAndRecovers) {
  ExperimentParams params = election_params(11);
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
  params.nodes[0].restart.enabled = true;
  params.nodes[0].restart.delay = milliseconds(60);
  params.nodes[0].restart.max_restarts = 2;

  int injected = 0, crashed = 0, restarted = 0, survivors_reelected = 0;
  for (int seed = 0; seed < 12; ++seed) {
    params.seed = 3000 + static_cast<std::uint64_t>(seed);
    const ExperimentResult r = runtime::run_experiment(params);
    EXPECT_TRUE(r.completed);
    for (const auto& inj : r.truth.injections) {
      ++injected;
      EXPECT_EQ(inj.machine, "black");
      EXPECT_EQ(inj.fault, "bfault1");
      // Ground truth: at the injection instant black really was the leader.
      EXPECT_TRUE(r.truth.in_state("black", "LEAD", inj.at));
    }
    if (r.truth.crashed("black")) ++crashed;
    const auto& tl = r.timeline_of("black");
    for (const auto& rec : tl.records)
      if (rec.type == runtime::RecordType::Restart) ++restarted;
    // After black's crash some survivor must re-elect (reach LEAD).
    for (const auto& nick : {"yellow", "green"}) {
      const auto* seq = r.truth.find_state_seq(nick);
      if (seq == nullptr) continue;
      for (const auto& [t, s] : *seq)
        if (s == "LEAD") ++survivors_reelected;
    }
  }
  EXPECT_GT(injected, 0) << "black should lead (and be injected) sometimes";
  EXPECT_GT(crashed, 0);
  EXPECT_GT(restarted, 0) << "restart policy should have kicked in";
  EXPECT_GT(survivors_reelected, 0) << "survivors should re-elect";
}

TEST(ElectionE2E, RestartOnDifferentHostRecordsHostName) {
  ExperimentParams params = election_params(13, milliseconds(800));
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
  params.nodes[0].restart.enabled = true;
  params.nodes[0].restart.placement = runtime::RestartPolicy::Placement::NextHost;
  params.nodes[0].restart.delay = milliseconds(50);

  bool saw_cross_host_restart = false;
  for (int seed = 0; seed < 15 && !saw_cross_host_restart; ++seed) {
    params.seed = 500 + static_cast<std::uint64_t>(seed);
    const ExperimentResult r = runtime::run_experiment(params);
    const auto& tl = r.timeline_of("black");
    for (const auto& rec : tl.records) {
      if (rec.type == runtime::RecordType::Restart) {
        EXPECT_EQ(rec.host, "hostB");  // next host after hostA
        saw_cross_host_restart = true;
      }
    }
  }
  EXPECT_TRUE(saw_cross_host_restart);
}

TEST(ElectionE2E, SilentCrashDetectedByWatchdog) {
  ExperimentParams params = election_params(17);
  apps::ElectionParams app;
  app.run_for = milliseconds(600);
  app.crash_mode = runtime::CrashMode::Silent;
  for (auto& node : params.nodes)
    node.app_factory = [app] { return std::make_unique<apps::ElectionApp>(app); };
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");

  bool saw_daemon_crash_record = false;
  for (int seed = 0; seed < 10 && !saw_daemon_crash_record; ++seed) {
    params.seed = 900 + static_cast<std::uint64_t>(seed);
    const ExperimentResult r = runtime::run_experiment(params);
    if (!r.truth.crashed("black")) continue;
    // The node died silently; only the local daemon can have written the
    // CRASH record (§3.5.2), stamped with the CRASH event index.
    const auto& tl = r.timeline_of("black");
    for (const auto& rec : tl.records) {
      if (rec.type == runtime::RecordType::StateChange &&
          tl.state_name(rec.state_index) == "CRASH") {
        saw_daemon_crash_record = true;
      }
    }
  }
  EXPECT_TRUE(saw_daemon_crash_record);
}

TEST(ElectionE2E, CrossMachineFaultChapter5Study4) {
  // gfault2: inject into green when black crashes while green is a
  // follower/elector — the flagship global-state-triggered injection.
  ExperimentParams params = election_params(23, milliseconds(800));
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
  auto& green = params.nodes[2];
  ASSERT_EQ(green.nickname, "green");
  green.fault_spec = spec::parse_fault_spec(
      "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n", "t");

  int gfault2_injections = 0, checked = 0;
  for (int seed = 0; seed < 15; ++seed) {
    params.seed = 7000 + static_cast<std::uint64_t>(seed);
    const ExperimentResult r = runtime::run_experiment(params);
    for (const auto& inj : r.truth.injections) {
      if (inj.fault != "gfault2") continue;
      ++gfault2_injections;
      // Ground truth check of the global-state trigger: black really had
      // crashed by then (runtime saw CRASH via its partial view).
      EXPECT_TRUE(r.truth.in_state("black", "CRASH", inj.at));
      ++checked;
    }
  }
  EXPECT_GT(gfault2_injections, 0)
      << "the cross-machine fault should fire in some experiments";
  EXPECT_EQ(checked, gfault2_injections);
}

TEST(ElectionE2E, AnalysisAcceptsMostCleanExperiments) {
  int accepted = 0;
  for (int k = 0; k < 10; ++k) {
    ExperimentParams p = election_params(4000 + static_cast<std::uint64_t>(k));
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    accepted += analysis::analyze_experiment(runtime::run_experiment(p)).accepted
                    ? 1
                    : 0;
  }
  // Same-machine triggers on an uncontended cluster: acceptance is high.
  EXPECT_GE(accepted, 8);
}

TEST(ElectionE2E, VerificationAgreesWithGroundTruth) {
  // Property over seeds: whenever the analysis ACCEPTS an experiment, every
  // injection was truly performed in the intended global state. (The
  // converse need not hold — the check is conservative.)
  for (int seed = 0; seed < 10; ++seed) {
    ExperimentParams params = election_params(6000 + static_cast<std::uint64_t>(seed));
    params.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    const ExperimentResult r = runtime::run_experiment(params);
    const auto a = analysis::analyze_experiment(r);
    if (!a.accepted) continue;
    for (const auto& inj : r.truth.injections)
      EXPECT_TRUE(r.truth.in_state("black", "LEAD", inj.at))
          << "accepted experiment with an untrue injection (seed " << seed << ")";
  }
}

TEST(ElectionE2E, TimeoutAbortsHungExperiment) {
  ExperimentParams params = election_params(31, seconds(30) /*never exits*/);
  params.central.experiment_timeout = milliseconds(400);
  params.hard_limit = seconds(5);
  const ExperimentResult r = runtime::run_experiment(params);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.completed);
}

TEST(ElectionE2E, DynamicEntryJoinsMidExperiment) {
  ExperimentParams params = election_params(37, milliseconds(700));
  // green enters 200ms into the experiment instead of at t0.
  auto& green = params.nodes[2];
  green.initial_host.reset();
  green.enter_at = milliseconds(200);
  green.enter_host = "hostC";
  const ExperimentResult r = runtime::run_experiment(params);
  EXPECT_TRUE(r.completed);
  const auto& tl = r.timeline_of("green");
  EXPECT_FALSE(tl.records.empty());
  // green's first record must be strictly later than the others' first.
  const auto first_ms = [&](const std::string& nick) {
    return r.timeline_of(nick).records.front().time.ns;
  };
  EXPECT_GT(first_ms("green") - r.start_local_of("hostC").ns,
            milliseconds(150).ns);
}

TEST(ElectionE2E, AlternativeDesignsRunToCompletion) {
  for (const auto design :
       {runtime::TransportDesign::Centralized, runtime::TransportDesign::Direct}) {
    ExperimentParams params = election_params(41);
    params.design = design;
    const ExperimentResult r = runtime::run_experiment(params);
    EXPECT_TRUE(r.completed) << static_cast<int>(design);
    EXPECT_EQ(r.timelines.size(), 3u);
    int leads = 0;
    for (const auto& seq : r.truth.state_seq)
      for (const auto& [t, s] : seq)
        if (s == "LEAD") ++leads;
    EXPECT_EQ(leads, 1) << static_cast<int>(design);
  }
}

TEST(ElectionE2E, LoadedHostsStillComplete) {
  ExperimentParams params = election_params(43);
  for (auto& host : params.hosts) host.load_duty = 0.8;
  const ExperimentResult r = runtime::run_experiment(params);
  EXPECT_TRUE(r.completed);
}

// --- kv store -----------------------------------------------------------------

TEST(KvStoreE2E, ReplicatesAndPromotesAfterPrimaryCrash) {
  apps::KvStoreParams app;
  app.initial_primary = "kv1";
  app.run_for = milliseconds(700);
  auto params = apps::kvstore_experiment(
      51, kHosts, {{"kv1", "hostA"}, {"kv2", "hostB"}, {"kv3", "hostC"}}, app);
  // Kill the primary mid-replication based on global state.
  params.nodes[0].fault_spec = spec::parse_fault_spec(
      "pfault (kv1:REPLICATING) once\n", "t");

  bool promoted = false;
  for (int seed = 0; seed < 8 && !promoted; ++seed) {
    params.seed = 100 + static_cast<std::uint64_t>(seed);
    const ExperimentResult r = runtime::run_experiment(params);
    EXPECT_TRUE(r.completed);
    for (const auto& nick : {"kv2", "kv3"}) {
      const auto* seq = r.truth.find_state_seq(nick);
      if (seq == nullptr) continue;
      for (const auto& [t, s] : *seq)
        if (s == "PRIMARY") promoted = true;
    }
  }
  EXPECT_TRUE(promoted) << "a backup should take over after the primary crash";
}

// --- token ring -----------------------------------------------------------------

TEST(TokenRingE2E, MutualExclusionHoldsWithoutFaults) {
  apps::TokenRingParams app;
  auto params = apps::token_ring_experiment(
      61, kHosts, {{"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}}, app);
  const ExperimentResult r = runtime::run_experiment(params);
  EXPECT_TRUE(r.completed);
  // Ground truth: never two machines in CRITICAL simultaneously.
  for (const auto& inj : r.truth.injections) (void)inj;
  std::vector<std::pair<SimTime, std::pair<std::string, bool>>> edges;
  for (std::size_t m = 0; m < r.truth.machines.size(); ++m) {
    const std::string& nick = r.truth.machines[m];
    const auto& seq = r.truth.state_seq[m];
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].second == "CRITICAL") {
        edges.push_back({seq[i].first, {nick, true}});
        if (i + 1 < seq.size()) edges.push_back({seq[i + 1].first, {nick, false}});
      }
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int depth = 0;
  for (const auto& [t, e] : edges) {
    depth += e.second ? 1 : -1;
    EXPECT_LE(depth, 1) << "mutual exclusion violated without any fault";
  }
}

TEST(TokenRingE2E, DuplicateTokenFaultViolatesMutualExclusion) {
  apps::TokenRingParams app;
  auto params = apps::token_ring_experiment(
      67, kHosts, {{"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}}, app);
  // Forge a token at n2 whenever n1 is critical.
  params.nodes[1].fault_spec = spec::parse_fault_spec(
      "duplicate_token (n1:CRITICAL) once\n", "t");

  bool violated = false;
  for (int seed = 0; seed < 6 && !violated; ++seed) {
    params.seed = 300 + static_cast<std::uint64_t>(seed);
    const ExperimentResult r = runtime::run_experiment(params);
    // Use the MEASURE framework to detect the violation, as a user would.
    const auto a = analysis::analyze_experiment(r);
    measure::StudyMeasure m;
    m.add(measure::subset_default(),
          measure::parse_predicate("((n1, CRITICAL) & (n2, CRITICAL))"),
          measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                      measure::TimeArg::end_exp()));
    const auto v = m.apply(a);
    if (v.has_value() && *v > 0.0) violated = true;
  }
  EXPECT_TRUE(violated) << "the forged token should be measurable as a "
                           "mutual-exclusion violation";
}

// --- campaign / measure integration ----------------------------------------------

TEST(CampaignE2E, CoverageStudyProducesPlausibleEstimate) {
  // Study 1 of §5.8 in miniature: coverage of an error in black, driven
  // through the campaign facade — a parallel runner plus a streaming
  // MeasureSink instead of buffering and batch analysis.
  measure::StudyMeasure coverage;
  coverage.add(measure::subset_default(),
               measure::parse_predicate("(black, CRASH)"),
               measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                           measure::TimeArg::end_exp()));
  coverage.add(measure::subset_greater(0.0),
               measure::parse_predicate("(black, RESTART_SM)"),
               measure::obs_greater(
                   measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                               measure::TimeArg::end_exp()),
                   0.0));

  auto sink = std::make_shared<campaign::MeasureSink>();
  sink->measure("study1", coverage);
  CampaignBuilder()
      .sink(sink)
      .runner(campaign::parse_runner_spec("threads:4"))
      .study("study1")
      .experiments(15)
      .generator([](int k) {
        ExperimentParams p = election_params(8000 + static_cast<std::uint64_t>(k),
                                             milliseconds(700));
        p.nodes[0].fault_spec =
            spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
        p.nodes[0].restart.enabled = true;
        p.nodes[0].restart.delay = milliseconds(60);
        return p;
      })
      .done()
      .build()
      .run();

  const auto values = *sink->values("study1");
  // Every value is 0 or 1 and with an always-on restart policy they are 1.
  for (const double v : values) EXPECT_TRUE(v == 0.0 || v == 1.0);
  if (!values.empty()) {
    const auto est = measure::simple_sampling_measure(sink->samples());
    EXPECT_GT(est.moments.mean, 0.5);
  }
}

}  // namespace
}  // namespace loki
