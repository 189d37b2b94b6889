// The result cache and the runner-spec grammar: a warm ResultCache serves a
// repeated study with zero run_experiment calls and a sink event sequence
// byte-identical to an uncached serial run, whichever runner filled it.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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

// Misses ahead of hits: the 4 fresh results are stored before any of the 12
// hits is served, so a store that disturbed other entries would turn a hit
// classified at study start into a mid-study failure. The cache never
// deletes what it stored, whichever runner produces the misses.
TEST(ResultCacheTest, FreshStoresNeverDisturbLaterHits) {
  const auto study = fault_study("shift", 16, 12'000);
  const auto uncached =
      record_events(std::make_shared<campaign::SerialRunner>(), study);
  for (const std::string spec : {"serial", "procs:2"}) {
    SCOPED_TRACE(spec);
    const std::string dir = temp_dir("cache-shift-" + spec);
    // Warm the seeds of indices 4..15.
    record_events(std::make_shared<campaign::SerialRunner>(),
                  fault_study("shift", 12, 12'004),
                  std::make_shared<campaign::ResultCache>(dir));

    auto cache = std::make_shared<campaign::ResultCache>(dir);
    const auto mixed =
        record_events(campaign::parse_runner_spec(spec), study, cache);
    EXPECT_EQ(cache->stats().hits, 12u);
    EXPECT_EQ(cache->stats().stores, 4u);
    EXPECT_EQ(mixed, uncached);

    auto rerun = std::make_shared<campaign::ResultCache>(dir);
    const auto warm =
        record_events(std::make_shared<ForbiddenRunner>(), study, rerun);
    EXPECT_EQ(rerun->stats().hits, 16u);
    EXPECT_EQ(warm, uncached);
  }
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

// One cache serving two campaigns on two threads at once, with four keys
// in common: stores, probes and lookups race on the index and the writer
// segment (TSan runs this suite).
TEST(ResultCacheTest, TwoCampaignsOnTwoThreadsShareOneCache) {
  const auto first = fault_study("left", 8, 13'000);
  const auto second = fault_study("right", 8, 13'004);
  const auto uncached_first =
      record_events(std::make_shared<campaign::SerialRunner>(), first);
  const auto uncached_second =
      record_events(std::make_shared<campaign::SerialRunner>(), second);

  const std::string dir = temp_dir("cache-threads");
  auto cache = std::make_shared<campaign::ResultCache>(dir);
  std::vector<Event> got_first;
  std::vector<Event> got_second;
  std::thread other([&] {
    got_second = record_events(std::make_shared<campaign::SerialRunner>(),
                               second, cache);
  });
  got_first = record_events(std::make_shared<campaign::SerialRunner>(),
                            first, cache);
  other.join();
  EXPECT_EQ(got_first, uncached_first);
  EXPECT_EQ(got_second, uncached_second);

  auto warm = std::make_shared<campaign::ResultCache>(dir);
  EXPECT_EQ(record_events(std::make_shared<ForbiddenRunner>(), first, warm),
            uncached_first);
  EXPECT_EQ(record_events(std::make_shared<ForbiddenRunner>(), second, warm),
            uncached_second);
  EXPECT_EQ(warm->stats().hits, 16u);
}

TEST(ResultCacheTest, TruncatedRecordIsAMissNotAnError) {
  const std::string dir = temp_dir("cache-torn");
  const auto study = fault_study("c", 3, 9000);
  std::vector<std::string> keys;
  {
    campaign::ResultCache cache(dir);
    for (int k = 0; k < study.experiments; ++k) {
      keys.push_back(runtime::experiment_cache_key(study.make_params(k)));
      cache.store(keys.back(), ExperimentResult{});
    }
  }
  // Cut the segment inside its last record: a crash mid-append.
  std::vector<std::filesystem::path> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".seg") segments.push_back(entry.path());
  ASSERT_EQ(segments.size(), 1u);
  std::filesystem::resize_file(segments[0],
                               std::filesystem::file_size(segments[0]) - 1);

  campaign::ResultCache reopened(dir);
  EXPECT_TRUE(reopened.lookup(keys[0]).has_value());
  EXPECT_TRUE(reopened.lookup(keys[1]).has_value());
  EXPECT_FALSE(reopened.contains(keys[2]));
  EXPECT_FALSE(reopened.lookup(keys[2]).has_value());
  EXPECT_EQ(reopened.stats().corrupt, 0u);
  EXPECT_THROW(reopened.lookup("not-a-key"), ConfigError);
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
