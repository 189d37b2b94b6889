// The fleet-telemetry arithmetic (runtime/worker_stats.* +
// campaign::FleetTelemetry): histogram bucketing and quantiles, EWMA
// seeding and blending, order-independent snapshot merges — and the
// end-to-end ledger: per-worker counters reported over protocol-v3
// heartbeats must sum exactly to the campaign totals, requeues and losses
// must attribute to the workers that caused them, and Campaign::Summary
// must stay a correct *delta* when one runner is shared across campaigns.
// Also smokes StatusSink's non-tty rendering against a live fleet.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/transport.hpp"
#include "runtime/worker_stats.hpp"
#include "util/text_file.hpp"

namespace loki {
namespace {

using runtime::LatencyHistogram;
using runtime::WorkerStatsSnapshot;
using runtime::merge_snapshots;

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

runtime::StudyParams fault_study(const std::string& name, int experiments,
                                 std::uint64_t base_seed = 61'000) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [base_seed](int k) {
    apps::ElectionParams app;
    app.run_for = milliseconds(300);
    app.fault_activation_prob = 0.85;
    auto p = apps::election_experiment(
        base_seed + static_cast<std::uint64_t>(k),
        {"hostA", "hostB", "hostC"},
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    p.nodes[0].restart.enabled = true;
    p.nodes[0].restart.delay = milliseconds(60);
    return p;
  };
  return study;
}

campaign::RemoteOptions test_options(int lease_size = 2) {
  campaign::RemoteOptions options;
  options.lease_size = lease_size;
  options.hang_timeout = std::chrono::milliseconds(5'000);
  return options;
}

// --- histogram arithmetic ----------------------------------------------------

TEST(LatencyHistogram, BucketBoundariesAreLogTwo) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 9);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10);
  // Everything past the top boundary lands in the final bucket.
  EXPECT_EQ(LatencyHistogram::bucket_of(std::uint64_t{1} << 40),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, QuantilesReportBucketMidpoints) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_us(0.5), 0.0);  // empty
  // 90 fast samples in bucket 3, 10 slow ones in bucket 10.
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1'500);
  EXPECT_EQ(h.total_count(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile_us(0.5), LatencyHistogram::bucket_mid_us(3));
  EXPECT_DOUBLE_EQ(h.quantile_us(0.9), LatencyHistogram::bucket_mid_us(3));
  EXPECT_DOUBLE_EQ(h.quantile_us(0.95), LatencyHistogram::bucket_mid_us(10));
  EXPECT_DOUBLE_EQ(h.quantile_us(1.0), LatencyHistogram::bucket_mid_us(10));
  // The midpoint is geometric: inside the bucket, above its lower bound.
  EXPECT_GT(LatencyHistogram::bucket_mid_us(3), 8.0);
  EXPECT_LT(LatencyHistogram::bucket_mid_us(3), 16.0);
}

TEST(LatencyHistogram, MergeIsBucketwiseSum) {
  LatencyHistogram a, b;
  a.record(5);
  a.record(700);
  b.record(6);
  b.record(1'000'000);
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.total_count(), 4u);
}

// --- EWMA and snapshot merges ------------------------------------------------

TEST(WorkerStats, FirstSampleSeedsTheEwmaExactly) {
  WorkerStatsSnapshot s;
  s.record_experiment_us(1'000);
  EXPECT_DOUBLE_EQ(s.ewma_latency_us, 1'000.0);
  EXPECT_EQ(s.experiments_completed, 1u);
  s.record_experiment_us(2'000);
  EXPECT_DOUBLE_EQ(s.ewma_latency_us,
                   runtime::kEwmaAlpha * 2'000.0 +
                       (1.0 - runtime::kEwmaAlpha) * 1'000.0);
  EXPECT_EQ(s.experiments_completed, 2u);
  EXPECT_EQ(s.histogram.total_count(), 2u);
}

TEST(WorkerStats, MergeIsCountWeightedAndOrderIndependent) {
  WorkerStatsSnapshot a, b, c;
  for (int i = 0; i < 4; ++i) a.record_experiment_us(100);
  a.bytes_encoded = 40;
  a.batches_flushed = 2;
  for (int i = 0; i < 12; ++i) b.record_experiment_us(900);
  b.bytes_encoded = 120;
  b.batches_flushed = 5;
  c.record_experiment_us(50'000);
  c.bytes_encoded = 7;
  c.batches_flushed = 1;

  const WorkerStatsSnapshot ab_c = merge_snapshots(merge_snapshots(a, b), c);
  const WorkerStatsSnapshot a_bc = merge_snapshots(a, merge_snapshots(b, c));
  const WorkerStatsSnapshot cba = merge_snapshots(c, merge_snapshots(b, a));
  EXPECT_EQ(ab_c.experiments_completed, 17u);
  EXPECT_EQ(ab_c.bytes_encoded, 167u);
  EXPECT_EQ(ab_c.batches_flushed, 8u);
  EXPECT_EQ(ab_c.histogram.total_count(), 17u);
  EXPECT_NEAR(ab_c.ewma_latency_us, a_bc.ewma_latency_us, 1e-9);
  EXPECT_NEAR(ab_c.ewma_latency_us, cba.ewma_latency_us, 1e-9);
  EXPECT_EQ(ab_c.histogram, a_bc.histogram);
  EXPECT_EQ(ab_c.histogram, cba.histogram);

  // The count-weighted EWMA is the weighted mean of the inputs.
  const double expected =
      (4.0 * a.ewma_latency_us + 12.0 * b.ewma_latency_us +
       1.0 * c.ewma_latency_us) /
      17.0;
  EXPECT_NEAR(ab_c.ewma_latency_us, expected, 1e-9);

  // Merging with an empty snapshot is the identity.
  EXPECT_EQ(merge_snapshots(a, WorkerStatsSnapshot{}), a);
  EXPECT_EQ(merge_snapshots(WorkerStatsSnapshot{}, a), a);
}

// --- fleet ledger over a live campaign ---------------------------------------

TEST(FleetTelemetry, CleanCampaignCountersSumToTheCampaignTotal) {
  const int n = 9;
  auto transport = std::make_shared<campaign::FakeTransport>(3);
  auto runner =
      std::make_shared<campaign::RemoteRunner>(transport, test_options());
  CampaignBuilder builder;
  builder.add(fault_study("telemetry-clean", n)).runner(runner);
  builder.build().run();

  const campaign::FleetTelemetry fleet = runner->telemetry();
  ASSERT_EQ(fleet.workers.size(), 3u);
  std::uint64_t completed = 0;
  for (const campaign::WorkerTelemetry& w : fleet.workers) {
    // Each worker's own ledger is internally consistent: the histogram
    // holds one sample per completed experiment.
    EXPECT_EQ(w.latest.histogram.total_count(), w.latest.experiments_completed);
    EXPECT_FALSE(w.lost);
    EXPECT_FALSE(w.busy);
    EXPECT_EQ(w.requeues, 0);
    EXPECT_FALSE(w.describe.empty());
    // A worker that never won a lease never heartbeats (nothing guarantees
    // every spawned worker gets work); one that completed anything has.
    EXPECT_EQ(w.recent.empty(), w.latest.experiments_completed == 0);
    completed += w.latest.experiments_completed;
  }
  // The final pre-LeaseDone heartbeat makes the fleet ledger exact: every
  // experiment is accounted to exactly one worker.
  EXPECT_EQ(completed, static_cast<std::uint64_t>(n));

  const WorkerStatsSnapshot merged = fleet.fleet_snapshot();
  EXPECT_EQ(merged.experiments_completed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(merged.histogram.total_count(), static_cast<std::uint64_t>(n));
  EXPECT_GT(merged.bytes_encoded, 0u);
  EXPECT_GE(merged.batches_flushed, static_cast<std::uint64_t>(n) / 2);
  EXPECT_GT(merged.ewma_latency_us, 0.0);
  EXPECT_EQ(fleet.requeues, 0);
  EXPECT_EQ(fleet.requeued_indices, 0);
  EXPECT_EQ(fleet.workers_lost, 0);
}

// One fleet serves every study of a Campaign::run, so telemetry read inside
// on_study_done describes the live fleet: its slots, a current lease span
// (updated at every tuning step, never the 0 of a runner that has not
// finished a run), and snapshots cumulative since the campaign began.
TEST(FleetTelemetry, MidCampaignReadsDescribeTheRunningFleet) {
  auto runner = std::make_shared<campaign::RemoteRunner>(
      std::make_shared<campaign::FakeTransport>(2), test_options());
  std::vector<campaign::FleetTelemetry> reads;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->study_done(
      [&](const campaign::StudyInfo&) { reads.push_back(runner->telemetry()); });
  CampaignBuilder builder;
  builder.add(fault_study("mid-0", 6, 61'000))
      .add(fault_study("mid-1", 6, 62'000))
      .add(fault_study("mid-2", 6, 63'000))
      .runner(runner)
      .sink(sink);
  builder.build().run();

  ASSERT_EQ(reads.size(), 3u);
  for (const campaign::FleetTelemetry& read : reads) {
    EXPECT_EQ(read.workers.size(), 2u);
    EXPECT_GE(read.final_lease_size, 1);
  }
  // The ledger covers the whole run, not the last study.
  EXPECT_EQ(runner->telemetry().fleet_snapshot().experiments_completed, 18u);
}

TEST(FleetTelemetry, FaultsAttributeToTheWorkersThatCausedThem) {
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->kill_after_results(0, 2);  // the first leased link
  auto runner =
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3));
  CampaignBuilder builder;
  builder.add(fault_study("telemetry-faulty", 9)).runner(runner);
  builder.build().run();

  const campaign::FleetTelemetry fleet = runner->telemetry();
  ASSERT_EQ(fleet.workers.size(), 2u);
  int attributed_requeues = 0;
  int lost_flags = 0;
  for (const campaign::WorkerTelemetry& w : fleet.workers) {
    attributed_requeues += w.requeues;
    lost_flags += w.lost ? 1 : 0;
  }
  // Single-study runner: the per-worker attribution and the cumulative
  // campaign counters are views of the same events.
  EXPECT_EQ(attributed_requeues, fleet.requeues);
  EXPECT_EQ(lost_flags, fleet.workers_lost);
  EXPECT_GE(fleet.workers_lost, 1);
  EXPECT_GE(fleet.requeued_indices, fleet.requeues);
  const int victim = transport->victim_slot(0);
  ASSERT_GE(victim, 0);
  EXPECT_TRUE(fleet.workers[static_cast<std::size_t>(victim)].lost);
  EXPECT_GE(fleet.workers[static_cast<std::size_t>(victim)].requeues, 1);
}

TEST(FleetTelemetry, SummaryIsADeltaWhenTheRunnerIsShared) {
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  auto runner =
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3));

  // Campaign 1 loses victim 0 mid-lease: its summary shows the damage.
  transport->kill_after_results(0, 2);
  CampaignBuilder first;
  first.add(fault_study("shared-faulty", 9));
  first.runner(runner);
  const Campaign::Summary summary1 = first.build().run();
  EXPECT_GE(summary1.requeue_events, 1);
  EXPECT_GE(summary1.requeued_indices, 1);
  EXPECT_GE(summary1.workers_lost, 1);

  // Campaign 2 on the SAME runner: its links claim fresh, unscripted
  // victims. The runner's cumulative telemetry still carries campaign 1's
  // losses, but the new summary must be the delta — all zeros.
  CampaignBuilder second;
  second.add(fault_study("shared-clean", 9, 62'000));
  second.runner(runner);
  const Campaign::Summary summary2 = second.build().run();
  EXPECT_EQ(summary2.requeue_events, 0);
  EXPECT_EQ(summary2.requeued_indices, 0);
  EXPECT_EQ(summary2.workers_lost, 0);

  const campaign::FleetTelemetry fleet = runner->telemetry();
  EXPECT_EQ(fleet.requeues, summary1.requeue_events);
  EXPECT_EQ(fleet.requeued_indices, summary1.requeued_indices);
  EXPECT_EQ(fleet.workers_lost, summary1.workers_lost);
}

// --- StatusSink --------------------------------------------------------------

TEST(StatusSinkView, RendersPerWorkerAndFleetLinesToAFile) {
  const std::string path =
      testing::TempDir() + "loki-status-" + std::to_string(::getpid()) + ".txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  auto runner =
      std::make_shared<campaign::RemoteRunner>(transport, test_options());
  CampaignBuilder builder;
  builder.add(fault_study("status-smoke", 8))
      .runner(runner)
      .sink(std::make_shared<campaign::StatusSink>(runner, out));
  builder.build().run();
  std::fclose(out);

  const std::string view = read_file(path);
  EXPECT_NE(view.find("fleet (final):"), std::string::npos) << view;
  EXPECT_NE(view.find("w0 "), std::string::npos) << view;
  EXPECT_NE(view.find("w1 "), std::string::npos) << view;
  EXPECT_NE(view.find("p95"), std::string::npos) << view;
  EXPECT_NE(view.find("lost 0"), std::string::npos) << view;
  std::remove(path.c_str());
}

TEST(StatusSinkView, RunnersWithoutFleetTelemetryGetANote) {
  const std::string path = testing::TempDir() + "loki-status-serial-" +
                           std::to_string(::getpid()) + ".txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);

  auto runner = std::make_shared<campaign::SerialRunner>();
  CampaignBuilder builder;
  builder.add(fault_study("status-serial", 2))
      .runner(runner)
      .sink(std::make_shared<campaign::StatusSink>(runner, out));
  builder.build().run();
  std::fclose(out);

  const std::string view = read_file(path);
  EXPECT_NE(view.find("no per-worker telemetry"), std::string::npos) << view;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace loki
