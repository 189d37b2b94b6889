// The campaign facade: builder validation at build() time, runner
// equivalence (thread pool == serial, byte for byte), one thread pool across
// study boundaries (generators serialized, claim window held), sink
// invocation order, and the streaming measure path against the batch one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/pipeline.hpp"
#include "apps/election.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "clocksync/sync_data.hpp"
#include "measure/study_measure.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

ExperimentParams election_params(std::uint64_t seed,
                                 Duration run_for = milliseconds(500)) {
  apps::ElectionParams app;
  app.run_for = run_for;
  return apps::election_experiment(seed, kHosts, kPlacement, app);
}

/// The quickstart campaign in miniature: fault on the leader + restart.
runtime::StudyParams quickstart_study(const std::string& name, int experiments,
                                      std::uint64_t base_seed = 1000) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [base_seed](int k) {
    auto p = election_params(base_seed + static_cast<std::uint64_t>(k));
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    p.nodes[0].restart.enabled = true;
    p.nodes[0].restart.delay = milliseconds(60);
    p.nodes[0].restart.max_restarts = 3;
    return p;
  };
  return study;
}

void expect_config_error(CampaignBuilder& builder, const std::string& fragment) {
  try {
    builder.build();
    FAIL() << "expected ConfigError containing '" << fragment << "'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

// --- builder validation ------------------------------------------------------

TEST(CampaignValidation, DuplicateNicknameFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[1].nickname = "black";
  p.nodes[1].sm_spec.set_name("black");
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "duplicate node nickname 'black'");
}

TEST(CampaignValidation, SpecNameMismatchFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[0].sm_spec.set_name("noir");
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "must equal the nickname");
}

TEST(CampaignValidation, UnknownInitialHostFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[0].initial_host = "hostZ";
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "unknown initial host 'hostZ'");
}

TEST(CampaignValidation, UnknownEnterHostFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[2].initial_host.reset();
  p.nodes[2].enter_at = milliseconds(100);
  p.nodes[2].enter_host = "hostZ";
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "unknown enter host 'hostZ'");
}

TEST(CampaignValidation, NodeWithoutAnyStartFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[2].initial_host.reset();
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "neither initial_host nor enter_at");
}

TEST(CampaignValidation, UnknownFixedRestartHostFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[0].restart.enabled = true;
  p.nodes[0].restart.placement = runtime::RestartPolicy::Placement::Fixed;
  p.nodes[0].restart.fixed_host = "hostZ";
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "unknown fixed restart host 'hostZ'");
}

TEST(CampaignValidation, FaultReferencingUnknownMachineFailsAtBuild) {
  auto p = election_params(1);
  p.nodes[0].fault_spec =
      spec::parse_fault_spec("f (white:LEAD) once\n", "t");
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "unknown machine 'white'");
}

TEST(CampaignValidation, HostCrashPlanUnknownHostFailsAtBuild) {
  auto p = election_params(1);
  p.host_crashes.push_back({"hostZ", milliseconds(100), milliseconds(100)});
  CampaignBuilder b;
  b.study("s").experiments(1).base(p);
  expect_config_error(b, "unknown host 'hostZ'");
}

TEST(CampaignValidation, FaultTargetingUnknownNodeFailsAtBuild) {
  CampaignBuilder b;
  b.study("s").experiments(1).base(election_params(1)).fault(
      "white", "f (black:LEAD) once\n");
  expect_config_error(b, "unknown node 'white'");
}

TEST(CampaignValidation, FaultSyntaxErrorSurfacesAtComposition) {
  CampaignBuilder b;
  EXPECT_THROW(b.study("s").fault("black", "not a fault spec"), ParseError);
}

TEST(CampaignValidation, DuplicateStudyNameFailsAtBuild) {
  CampaignBuilder b;
  b.study("s").experiments(1).base(election_params(1));
  b.study("s").experiments(1).base(election_params(2));
  expect_config_error(b, "duplicate study name 's'");
}

TEST(CampaignValidation, EmptyStudyFailsAtBuild) {
  CampaignBuilder b;
  b.study("s").experiments(1);
  expect_config_error(b, "no base params or generator");
}

TEST(CampaignValidation, ErrorNamesTheStudy) {
  auto p = election_params(1);
  p.nodes[0].initial_host = "hostZ";
  CampaignBuilder b;
  b.study("who-am-i").experiments(1).base(p);
  expect_config_error(b, "study 'who-am-i'");
}

// --- pre-built StudyParams: add() shells are validated at build() ------------

TEST(BuilderAdd, RejectsEmptyName) {
  runtime::StudyParams study;
  study.name = "";
  study.experiments = 1;
  study.make_params = [](int) { return election_params(1); };
  CampaignBuilder builder;
  builder.add(study);
  EXPECT_THROW(builder.build(), ConfigError);
}

TEST(BuilderAdd, RejectsNonPositiveExperiments) {
  CampaignBuilder builder;
  builder.add(quickstart_study("s", 0));
  expect_config_error(builder, "study 's'");
  expect_config_error(builder, "experiments");
}

TEST(BuilderAdd, RejectsNullGenerator) {
  runtime::StudyParams study;
  study.name = "nogen";
  study.experiments = 3;
  CampaignBuilder builder;
  builder.add(study);
  expect_config_error(builder, "nogen");
  expect_config_error(builder, "make_params");
}

// --- runner equivalence ------------------------------------------------------

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  // Timelines and sync samples byte-identical via their file serializations.
  ASSERT_EQ(a.timelines.size(), b.timelines.size());
  for (const auto& tl : a.timelines) {
    const auto* other = b.find_timeline(tl.nickname);
    ASSERT_NE(other, nullptr) << tl.nickname;
    EXPECT_EQ(runtime::serialize_local_timeline(tl),
              runtime::serialize_local_timeline(*other))
        << tl.nickname;
  }
  EXPECT_EQ(clocksync::serialize_timestamps(a.sync_samples),
            clocksync::serialize_timestamps(b.sync_samples));

  // Ground truth: state sequences and injection instants.
  EXPECT_EQ(a.truth.state_seq, b.truth.state_seq);
  ASSERT_EQ(a.truth.injections.size(), b.truth.injections.size());
  for (std::size_t i = 0; i < a.truth.injections.size(); ++i) {
    EXPECT_EQ(a.truth.injections[i].machine, b.truth.injections[i].machine);
    EXPECT_EQ(a.truth.injections[i].fault, b.truth.injections[i].fault);
    EXPECT_EQ(a.truth.injections[i].at, b.truth.injections[i].at);
  }
  EXPECT_EQ(a.truth.crashes, b.truth.crashes);

  EXPECT_EQ(a.start_phys, b.start_phys);
  EXPECT_EQ(a.end_phys, b.end_phys);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.app_messages, b.app_messages);
}

/// Run one study through `runner`; its results in emit order.
std::vector<ExperimentResult> run_with(std::shared_ptr<campaign::Runner> runner,
                                       const runtime::StudyParams& study) {
  std::vector<ExperimentResult> results;
  auto collect = std::make_shared<campaign::CallbackSink>();
  collect->experiment([&](const campaign::StudyInfo&, int,
                          const ExperimentResult& r) { results.push_back(r); });
  CampaignBuilder builder;
  builder.add(study).runner(std::move(runner)).sink(collect).build().run();
  return results;
}

TEST(Runners, ThreadPoolMatchesSerialByteForByte) {
  const auto study = quickstart_study("quickstart", 10);
  const auto serial = run_with(std::make_shared<campaign::SerialRunner>(), study);
  const auto pooled =
      run_with(std::make_shared<campaign::ThreadPoolRunner>(4), study);

  ASSERT_EQ(serial.size(), 10u);
  ASSERT_EQ(pooled.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k) {
    SCOPED_TRACE("experiment " + std::to_string(k));
    expect_identical(serial[k], pooled[k]);
  }
}

TEST(Runners, MoreWorkersThanExperiments) {
  const auto study = quickstart_study("tiny", 2);
  const auto pooled =
      run_with(std::make_shared<campaign::ThreadPoolRunner>(8), study);
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_TRUE(pooled[0].completed);
}

TEST(Runners, ThreadPoolRejectsZeroWorkers) {
  EXPECT_THROW(campaign::ThreadPoolRunner(0), ConfigError);
}

TEST(Runners, FailureEmitsSerialPrefixThenThrows) {
  // Experiment 3's generator throws (instantly, while 0-2 are still
  // running on other workers). SerialRunner semantics must hold: the
  // completed prefix 0..2 reaches the sinks in order, then the exception
  // propagates and nothing past index 3 is emitted.
  runtime::StudyParams study;
  study.name = "boom";
  study.experiments = 6;
  study.make_params = [](int k) {
    if (k == 3) throw std::runtime_error("generator exploded at 3");
    return election_params(static_cast<std::uint64_t>(k) + 1);
  };
  auto seen = std::make_shared<std::vector<int>>();
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([seen](const campaign::StudyInfo&, int k,
                          const ExperimentResult&) { seen->push_back(k); });
  auto runner = std::make_shared<campaign::ThreadPoolRunner>(4);
  CampaignBuilder builder;
  Campaign c = builder.add(study).runner(runner).sink(sink).build();
  EXPECT_THROW(c.run(), std::runtime_error);
  EXPECT_EQ(*seen, (std::vector<int>{0, 1, 2}));
}

TEST(Runners, MidStudyValidationErrorNamesExperiment) {
  runtime::StudyParams study;
  study.name = "latebad";
  study.experiments = 3;
  study.make_params = [](int k) {
    auto p = election_params(static_cast<std::uint64_t>(k) + 1);
    if (k == 2) p.nodes[0].initial_host = "hostZ";  // invalid only at k=2
    return p;
  };
  CampaignBuilder builder;
  Campaign c = builder.add(study).build();  // probe of k=0 passes
  try {
    c.run();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("experiment 2"), std::string::npos)
        << e.what();
  }
}

// --- sink invocation order ---------------------------------------------------

TEST(Sinks, InvocationOrderIsSerialEvenWhenParallel) {
  auto events = std::make_shared<std::vector<std::string>>();
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->campaign_begin([events](int n) {
        events->push_back("campaign:" + std::to_string(n));
      })
      .study_begin([events](const campaign::StudyInfo& s) {
        events->push_back("begin:" + s.name);
      })
      .experiment([events](const campaign::StudyInfo& s, int k,
                           const ExperimentResult&) {
        events->push_back("exp:" + s.name + ":" + std::to_string(k));
      })
      .study_done([events](const campaign::StudyInfo& s) {
        events->push_back("done:" + s.name);
      })
      .campaign_done([events] { events->push_back("campaign-done"); });

  CampaignBuilder builder;
  builder.add(quickstart_study("s1", 3, 2000))
      .add(quickstart_study("s2", 2, 3000))
      .runner(std::make_shared<campaign::ThreadPoolRunner>(3))
      .sink(sink);
  builder.build().run();

  const std::vector<std::string> expected = {
      "campaign:2", "begin:s1", "exp:s1:0", "exp:s1:1", "exp:s1:2", "done:s1",
      "begin:s2",   "exp:s2:0", "exp:s2:1", "done:s2",  "campaign-done"};
  EXPECT_EQ(*events, expected);
}

// --- streaming sinks vs batch ------------------------------------------------

measure::StudyMeasure coverage_measure() {
  measure::StudyMeasure m;
  m.add(measure::subset_default(),
        measure::parse_predicate("(black, CRASH)"),
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

TEST(Sinks, MeasureSinkMatchesBatchPipeline) {
  const auto study = quickstart_study("cov", 8, 8000);

  // Batch reference: run and analyze each experiment by hand, then measure.
  std::vector<analysis::ExperimentAnalysis> analyses;
  for (int k = 0; k < study.experiments; ++k)
    analyses.push_back(analysis::analyze_experiment(
        runtime::run_experiment(study.make_params(k))));
  const auto batch_values = coverage_measure().apply_study(analyses);

  // Streaming: one pass through the MeasureSink.
  auto sink = std::make_shared<campaign::MeasureSink>();
  sink->measure("cov", coverage_measure());
  CampaignBuilder builder;
  builder.add(study)
      .runner(campaign::parse_runner_spec("threads:4"))
      .sink(sink);
  builder.build().run();

  ASSERT_NE(sink->values("cov"), nullptr);
  EXPECT_EQ(*sink->values("cov"), batch_values);

  const auto* stats = sink->find("cov");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total, 8);
  int accepted = 0;
  for (const auto& a : analyses) accepted += a.accepted ? 1 : 0;
  EXPECT_EQ(stats->accepted, accepted);

  const auto samples = sink->samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].study, "cov");
  EXPECT_EQ(samples[0].values, batch_values);
}

TEST(Sinks, AnalysisSinkStreamsWithoutRetaining) {
  const auto study = quickstart_study("an", 4, 8100);
  auto sink = std::make_shared<campaign::AnalysisSink>();
  int streamed = 0;
  sink->on_analysis([&](const campaign::StudyInfo& s, int,
                        const analysis::ExperimentAnalysis&) {
    EXPECT_EQ(s.name, "an");
    ++streamed;
  });
  CampaignBuilder builder;
  builder.add(study).sink(sink);
  builder.build().run();

  EXPECT_EQ(streamed, 4);
  const auto* record = sink->find("an");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->total, 4);
  EXPECT_LE(record->accepted, record->total);
}

// --- fluent composition ------------------------------------------------------

TEST(Builder, ComposedStudyRunsAndInjects) {
  // Quickstart study built entirely through the fluent surface.
  std::vector<ExperimentResult> experiments;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([&](const campaign::StudyInfo&, int,
                       const ExperimentResult& r) { experiments.push_back(r); });
  CampaignBuilder builder;
  Campaign c = builder.sink(sink)
                   .study("fluent")
                   .experiments(3)
                   .base(election_params(4000))
                   .fault("black", "bfault1 (black:LEAD) always\n")
                   .tweak([](ExperimentParams& p, int) {
                     p.nodes[0].restart.enabled = true;
                     p.nodes[0].restart.delay = milliseconds(60);
                   })
                   .done()
                   .build();
  c.run();

  ASSERT_EQ(experiments.size(), 3u);
  for (const auto& r : experiments) EXPECT_TRUE(r.completed);
  // base(seed) varies the seed per experiment: runs differ.
  EXPECT_NE(runtime::serialize_local_timeline(experiments[0].timeline_of("black")),
            runtime::serialize_local_timeline(experiments[1].timeline_of("black")));
}

TEST(Builder, SummaryCountsExperiments) {
  CampaignBuilder builder;
  builder.add(quickstart_study("s1", 3)).add(quickstart_study("s2", 2, 5000));
  const Campaign::Summary summary = builder.build().run();
  EXPECT_EQ(summary.studies, 2);
  EXPECT_EQ(summary.experiments, 5);
  EXPECT_EQ(summary.completed, 5);
  EXPECT_EQ(summary.timed_out, 0);
  EXPECT_GE(summary.wall_seconds, 0.0);
}

TEST(Builder, RunIsSingleShot) {
  CampaignBuilder builder;
  builder.add(quickstart_study("once", 1));
  Campaign c = builder.build();
  c.run();
  EXPECT_THROW(c.run(), LogicError);
}

TEST(Runners, SkewedDurationsKeepOrderAndBackpressure) {
  // Experiment 0 runs 3x longer than the rest: later experiments finish
  // first and must wait in the pool's bounded reorder window (workers=2 ->
  // window 4 < 12 experiments) without changing what sinks observe.
  runtime::StudyParams study;
  study.name = "skew";
  study.experiments = 12;
  study.make_params = [](int k) {
    return election_params(7000 + static_cast<std::uint64_t>(k),
                           k == 0 ? milliseconds(900) : milliseconds(300));
  };
  const auto serial = run_with(std::make_shared<campaign::SerialRunner>(), study);
  const auto pooled =
      run_with(std::make_shared<campaign::ThreadPoolRunner>(2), study);
  ASSERT_EQ(pooled.size(), 12u);
  for (std::size_t k = 0; k < 12; ++k) {
    SCOPED_TRACE("experiment " + std::to_string(k));
    expect_identical(serial[k], pooled[k]);
  }
}

// --- one pool across study boundaries ----------------------------------------

/// `count` quickstart studies of `experiments` each; every generator call
/// first runs `on_generate(study, index)`.
std::vector<runtime::StudyParams> boundary_studies(
    int count, int experiments,
    const std::function<void(int study, int index)>& on_generate) {
  std::vector<runtime::StudyParams> studies;
  for (int s = 0; s < count; ++s) {
    runtime::StudyParams study = quickstart_study(
        "boundary" + std::to_string(s), experiments,
        20'000 + 1'000 * static_cast<std::uint64_t>(s));
    study.make_params = [inner = study.make_params, on_generate, s](int k) {
      on_generate(s, k);
      return inner(k);
    };
    studies.push_back(std::move(study));
  }
  return studies;
}

/// The sink event sequence of `studies` through `runner`, each result as
/// its encoded bytes; a non-empty `journal` (which needs `cache`) journals
/// the campaign there.
std::vector<std::string> run_events(
    std::shared_ptr<campaign::Runner> runner,
    const std::vector<runtime::StudyParams>& studies,
    std::shared_ptr<campaign::ResultCache> cache = nullptr,
    const std::string& journal = "") {
  std::vector<std::string> events;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->study_begin([&](const campaign::StudyInfo& s) {
        events.push_back("begin:" + s.name);
      })
      .experiment([&](const campaign::StudyInfo& s, int k,
                      const ExperimentResult& r) {
        const std::vector<std::uint8_t> bytes =
            runtime::encode_experiment_result(r);
        events.push_back("exp:" + s.name + ":" + std::to_string(k) + ":" +
                         std::string(bytes.begin(), bytes.end()));
      })
      .study_done([&](const campaign::StudyInfo& s) {
        events.push_back("done:" + s.name);
      });
  CampaignBuilder builder;
  for (const runtime::StudyParams& study : studies) builder.add(study);
  builder.runner(std::move(runner)).sink(sink);
  if (cache) builder.cache(std::move(cache));
  if (!journal.empty()) builder.journal(journal);
  builder.build().run();
  return events;
}

TEST(Runners, OnePoolServesEveryStudy) {
  // Six studies over at most three pool threads: if one pool serves the
  // whole run, some thread must generate for two studies. A pool restarted
  // per study gives every thread a single study. (Thread ids cannot tell:
  // a joined thread's id is reused.)
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> served_two{false};
  const auto studies = boundary_studies(6, 10, [&](int study, int) {
    if (std::this_thread::get_id() == caller) return;
    thread_local int first_study = -1;
    if (first_study < 0)
      first_study = study;
    else if (first_study != study)
      served_two = true;
  });
  const auto serial =
      run_events(std::make_shared<campaign::SerialRunner>(), studies);
  auto runner = std::make_shared<campaign::ThreadPoolRunner>(3);
  EXPECT_TRUE(run_events(runner, studies) == serial);
  EXPECT_TRUE(served_two.load());
  // A second Campaign::run on the same runner starts its own pool.
  EXPECT_TRUE(run_events(runner, studies) == serial);
}

TEST(Runners, GeneratorsNeverRunConcurrently) {
  // Cache-first: next() probes each study by calling its generator on the
  // calling thread, and the pool pulls study k+1 while its threads still
  // generate study k. A journal also needs each study's digest, which calls
  // its generator, and the emit that ends study k writes study k+1's
  // StudyBegin while threads may already generate study k+1. Every
  // generator call must still run alone.
  std::atomic<int> in_call{0};
  std::atomic<int> overlaps{0};
  const auto studies = boundary_studies(6, 10, [&](int, int) {
    if (in_call.fetch_add(1) != 0) ++overlaps;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    in_call.fetch_sub(1);
  });
  const auto serial =
      run_events(std::make_shared<campaign::SerialRunner>(), studies);
  for (const bool journaled : {false, true}) {
    SCOPED_TRACE(journaled ? "cache + journal" : "cache");
    const std::string dir = testing::TempDir() + "loki-generators-alone-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    overlaps = 0;
    auto cache = std::make_shared<campaign::ResultCache>(dir + "/cache");
    EXPECT_TRUE(run_events(std::make_shared<campaign::ThreadPoolRunner>(3),
                           studies, std::move(cache),
                           journaled ? dir + "/campaign.journal" : "") ==
                serial);
    EXPECT_EQ(overlaps.load(), 0);
    std::filesystem::remove_all(dir);
  }
}

TEST(Runners, ClaimWindowHoldsAcrossStudyBoundaries) {
  // threads:2 claims at most 2 * 2 = 4 positions past the drain cursor,
  // counted across studies of 2. Experiment (0, 0) runs 3x longer, so the
  // pool runs ahead of the first emission; every emission then holds the
  // calling thread long enough for threads to claim whatever they may.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> pool_calls{0};
  std::vector<runtime::StudyParams> studies;
  for (int s = 0; s < 6; ++s) {
    runtime::StudyParams study;
    study.name = "window" + std::to_string(s);
    study.experiments = 2;
    study.make_params = [&pool_calls, caller, s](int k) {
      if (std::this_thread::get_id() != caller) ++pool_calls;
      return election_params(
          9'000 + 10 * static_cast<std::uint64_t>(s) +
              static_cast<std::uint64_t>(k),
          s == 0 && k == 0 ? milliseconds(900) : milliseconds(300));
    };
    studies.push_back(std::move(study));
  }
  int emitted = 0;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([&](const campaign::StudyInfo&, int,
                       const ExperimentResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LE(pool_calls.load(), emitted + 4) << "at emission " << emitted;
    ++emitted;
  });
  CampaignBuilder builder;
  for (const runtime::StudyParams& study : studies) builder.add(study);
  builder.runner(std::make_shared<campaign::ThreadPoolRunner>(2)).sink(sink);
  builder.build().run();
  EXPECT_EQ(emitted, 12);
}

TEST(RunSingle, ValidatesBeforeRunning) {
  auto p = election_params(1);
  p.nodes[0].initial_host = "hostZ";
  EXPECT_THROW(campaign::run_single(p, "single"), ConfigError);
  EXPECT_TRUE(campaign::run_single(election_params(1), "single").completed);
}

}  // namespace
}  // namespace loki
