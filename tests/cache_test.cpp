// The result cache and the runner-spec grammar: a warm ResultCache serves a
// repeated study with zero run_experiment calls and a sink event sequence
// byte-identical to an uncached serial run, whichever runner filled it.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/election.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

ExperimentParams election_params(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  app.fault_activation_prob = 0.85;
  return apps::election_experiment(seed, kHosts, kPlacement, app);
}

runtime::StudyParams fault_study(const std::string& name, int experiments,
                                 std::uint64_t base_seed = 3000) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [base_seed](int k) {
    auto p = election_params(base_seed + static_cast<std::uint64_t>(k));
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    p.nodes[0].restart.enabled = true;
    p.nodes[0].restart.delay = milliseconds(60);
    return p;
  };
  return study;
}

/// One observed sink event, rendered comparable.
struct Event {
  std::string kind;
  std::string study;
  int index{-1};
  std::vector<std::uint8_t> result_bytes;

  bool operator==(const Event&) const = default;
};

/// Run `study` through `runner` via the full Campaign, recording the exact
/// sink event sequence (results as encoded bytes).
std::vector<Event> record_events(std::shared_ptr<campaign::Runner> runner,
                                 const runtime::StudyParams& study,
                                 std::shared_ptr<campaign::ResultCache> cache =
                                     nullptr) {
  std::vector<Event> events;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->campaign_begin([&](int n) {
    events.push_back({"campaign_begin", std::to_string(n), -1, {}});
  });
  sink->study_begin([&](const campaign::StudyInfo& info) {
    events.push_back({"study_begin", info.name, -1, {}});
  });
  sink->experiment([&](const campaign::StudyInfo& info, int index,
                       const ExperimentResult& result) {
    events.push_back({"experiment", info.name, index,
                      runtime::encode_experiment_result(result)});
  });
  sink->study_done([&](const campaign::StudyInfo& info) {
    events.push_back({"study_done", info.name, -1, {}});
  });
  sink->campaign_done(
      [&] { events.push_back({"campaign_done", "", -1, {}}); });

  CampaignBuilder builder;
  builder.add(study).runner(std::move(runner)).sink(sink);
  if (cache) builder.cache(std::move(cache));
  builder.build().run();
  return events;
}

std::string temp_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "loki-" + tag + "-" +
                          std::to_string(::getpid());
  // A previous ctest invocation may have left a warm cache here; these
  // tests assert cold-start stats, so start clean.
  std::filesystem::remove_all(dir);
  return dir;
}

/// A runner that must never be asked to run anything — proof that a warm
/// cache performs zero run_experiment calls: it pulls the whole plan and
/// throws if any study's plan holds an index to execute.
class ForbiddenRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "forbidden"; }
  void run(const std::vector<runtime::StudyParams>& studies,
           const campaign::NextFn& next, const campaign::EmitFn&) override {
    while (const std::optional<campaign::StudyPlan> plan = next())
      if (!plan->runs.empty())
        throw LogicError(
            "ForbiddenRunner asked to run study '" +
            studies[static_cast<std::size_t>(plan->study)].name + "'");
  }
};

// --- the result cache --------------------------------------------------------

TEST(ResultCacheTest, WarmRerunPerformsZeroRuns) {
  const auto study = fault_study("cached", 5, 6000);
  const std::string dir = temp_dir("cache-warm");

  auto cache = std::make_shared<campaign::ResultCache>(dir);
  const auto cold = record_events(std::make_shared<campaign::SerialRunner>(),
                                  study, cache);
  EXPECT_EQ(cache->stats().stores, 5u);
  EXPECT_EQ(cache->stats().hits, 0u);

  // Second, identical study: the runner must never be invoked, and the
  // sink event sequence must be byte-identical to the cold run.
  auto cache2 = std::make_shared<campaign::ResultCache>(dir);
  const auto warm =
      record_events(std::make_shared<ForbiddenRunner>(), study, cache2);
  EXPECT_EQ(cache2->stats().hits, 5u);
  EXPECT_EQ(cache2->stats().misses, 0u);
  EXPECT_EQ(cold, warm);
}

TEST(ResultCacheTest, PartialWarmRunsOnlyMissesAndInterleavesInOrder) {
  const std::string dir = temp_dir("cache-partial");

  // Warm indices 0..2 (a prefix study with the same seeds).
  auto cache = std::make_shared<campaign::ResultCache>(dir);
  record_events(std::make_shared<campaign::SerialRunner>(),
                fault_study("grow", 3, 7000), cache);

  // Extend to 7 experiments: 3 hits + 4 fresh, emitted 0..6 in order and
  // byte-identical to an uncached serial run.
  const auto study = fault_study("grow", 7, 7000);
  auto cache2 = std::make_shared<campaign::ResultCache>(dir);
  const auto mixed = record_events(std::make_shared<campaign::SerialRunner>(),
                                   study, cache2);
  EXPECT_EQ(cache2->stats().hits, 3u);
  EXPECT_EQ(cache2->stats().stores, 4u);

  const auto uncached =
      record_events(std::make_shared<campaign::SerialRunner>(), study);
  EXPECT_EQ(mixed, uncached);

  // And a third run is now fully warm.
  auto cache3 = std::make_shared<campaign::ResultCache>(dir);
  const auto warm = record_events(std::make_shared<ForbiddenRunner>(), study,
                                  cache3);
  EXPECT_EQ(cache3->stats().hits, 7u);
  EXPECT_EQ(warm, uncached);
}

TEST(ResultCacheTest, ProcessRunnerMissesFillTheCacheIdentically) {
  const std::string dir_proc = temp_dir("cache-proc");
  const std::string dir_serial = temp_dir("cache-serial");
  const auto study = fault_study("xrunner", 4, 8000);

  auto cache_proc = std::make_shared<campaign::ResultCache>(dir_proc);
  const auto via_procs = record_events(campaign::parse_runner_spec("procs:2"),
                                       study, cache_proc);
  auto cache_serial = std::make_shared<campaign::ResultCache>(dir_serial);
  const auto via_serial = record_events(
      std::make_shared<campaign::SerialRunner>(), study, cache_serial);
  EXPECT_EQ(via_procs, via_serial);

  // Caches warmed by different runners serve each other's studies.
  auto reuse = std::make_shared<campaign::ResultCache>(dir_proc);
  const auto warm =
      record_events(std::make_shared<ForbiddenRunner>(), study, reuse);
  EXPECT_EQ(warm, via_serial);
}

TEST(ResultCacheTest, SinkFailureDuringCachedEmitDoesNotDoubleEmit) {
  const std::string dir = temp_dir("cache-sink-throw");

  // Warm indices 0..2, then run 5 experiments with a sink that explodes on
  // cached index 1 (delivered while interleaving ahead of fresh index 3).
  auto warmup = std::make_shared<campaign::ResultCache>(dir);
  record_events(std::make_shared<campaign::SerialRunner>(),
                fault_study("boom", 3, 11'000), warmup);

  const auto study = fault_study("boom", 5, 11'000);
  std::vector<int> emitted;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([&](const campaign::StudyInfo&, int index,
                       const ExperimentResult&) {
    emitted.push_back(index);
    if (index == 1) throw std::runtime_error("sink exploded");
  });
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::make_shared<campaign::SerialRunner>())
      .cache(std::make_shared<campaign::ResultCache>(dir))
      .sink(sink);
  Campaign campaign = builder.build();
  EXPECT_THROW(campaign.run(), std::runtime_error);
  // Exactly-once even on failure: index 1 was attempted once and is never
  // re-delivered (with a moved-from result) by the failure-prefix flush.
  EXPECT_EQ(emitted, (std::vector<int>{0, 1}));
}

TEST(ResultCacheTest, CorruptEntryIsAMissNotAnError) {
  const std::string dir = temp_dir("cache-corrupt");
  campaign::ResultCache cache(dir);
  const auto params = fault_study("c", 1, 9000).make_params(0);
  const std::string key = runtime::experiment_cache_key(params);

  cache.store(key, ExperimentResult{});
  ASSERT_TRUE(cache.lookup(key).has_value());

  // Truncate the stored file; the next lookup must degrade to a miss.
  {
    std::FILE* f = std::fopen((dir + "/" + key + ".result").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("LOKI", f);  // valid magic, nothing else
    std::fclose(f);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_THROW(cache.lookup("not-a-key"), ConfigError);
}

// --- runner spec grammar -----------------------------------------------------

TEST(RunnerSpec, ParsesEveryBackend) {
  EXPECT_EQ(campaign::parse_runner_spec("serial")->name(), "serial");
  EXPECT_EQ(campaign::parse_runner_spec("threads:3")->name(), "thread-pool(3)");
  // procs:N is the crash-tolerant dynamic work queue over local worker
  // processes — the only process runner.
  EXPECT_EQ(campaign::parse_runner_spec("procs:5")->name(),
            "remote(subprocess:5)");
}

TEST(RunnerSpec, RejectsMalformedSpecs) {
  // A bare worker count ("1", "4") names no runner.
  for (const char* bad :
       {"", "serial:2", "threads:", "threads:0", "procs:-1", "procs:x",
        "static-procs:2", "remote:", "fibers:2", "2.5", "1", "4"})
    EXPECT_THROW(campaign::parse_runner_spec(bad), ConfigError) << bad;
  // remote: with a missing hostfile fails with the path in the message.
  EXPECT_THROW(campaign::parse_runner_spec("remote:/no/such/hostfile"),
               ConfigError);
}

}  // namespace
}  // namespace loki
