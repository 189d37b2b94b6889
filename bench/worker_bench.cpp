// Steady-state floor of the worker protocol loop (google-benchmark): one
// serve_worker pass over a preloaded QueueFrameChannel — Hello handshake,
// leased experiments, ResultBatch encoding into the reused buffer, Shutdown.
// This is the per-worker cost every campaign backend pays on top of
// run_experiment itself; the CI perf job gates it against the branch
// baseline (tools/bench_compare.py --hot BM_WorkerLoop).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "apps/election.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "runtime/experiment.hpp"
#include "runtime/serialize.hpp"

using namespace loki;

namespace {

runtime::StudyParams bench_study(int experiments) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  runtime::StudyParams study;
  study.name = "bm-worker";
  study.experiments = experiments;
  study.make_params = [app](int k) {
    auto params = apps::election_experiment(
        7000 + static_cast<std::uint64_t>(k), {"hostA", "hostB", "hostC"},
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    params.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "bm");
    return params;
  };
  return study;
}

// The full worker loop, in process: the studies are "inherited" (a Hello
// without studies, the fork() shape), so the measured work is protocol
// dispatch, the experiments themselves, and result encoding — no study
// decode per iteration. The arg is ServeOptions::batch_soft_bytes: 1 byte flushes every
// result in its own batch (the chattiest shape), 64 KiB accumulates a whole
// lease per frame (the production default).
void BM_WorkerLoop(benchmark::State& state) {
  constexpr int kExperiments = 4;
  const std::vector<runtime::StudyParams> studies{bench_study(kExperiments)};

  campaign::ServeOptions options;
  options.batch_soft_bytes = static_cast<std::size_t>(state.range(0));

  // Parent->worker script, encoded once: handshake (at the default
  // coordinator's heartbeat interval, 30 s hang_timeout / 4), one lease
  // covering the study, shutdown.
  const auto hello = runtime::encode_hello_frame(nullptr, 7'500);
  runtime::LeaseFrame lease;
  lease.id = 1;
  lease.study = 0;
  lease.lo = 0;
  lease.hi = kExperiments;
  const auto lease_frame = runtime::encode_lease_frame(lease);
  const auto shutdown = runtime::encode_shutdown_frame();

  campaign::QueueFrameChannel channel;
  std::uint64_t experiments = 0;
  std::uint64_t result_bytes = 0;
  for (auto _ : state) {
    channel.reset();
    channel.push(hello);
    channel.push(lease_frame);
    channel.push(shutdown);
    campaign::serve_worker(channel, &studies, options);
    for (const auto& frame : channel.written()) {
      if (runtime::worker_frame_type(frame) ==
          runtime::WorkerFrame::ResultBatch) {
        experiments += runtime::result_batch_entry_count(frame);
        result_bytes += frame.size();
      }
    }
    benchmark::DoNotOptimize(channel.written().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(experiments));
  state.counters["result_bytes/experiment"] =
      experiments == 0 ? 0.0
                       : static_cast<double>(result_bytes) /
                             static_cast<double>(experiments);
}
BENCHMARK(BM_WorkerLoop)->Arg(1)->Arg(64 * 1024)->Unit(benchmark::kMillisecond);

// The result plane alone: encode one pre-computed result into a reused
// batch buffer, then decode the batch — the marginal wire cost per
// experiment with the experiment itself factored out.
void BM_ResultBatchRoundTrip(benchmark::State& state) {
  const auto study = bench_study(1);
  const auto result = runtime::run_experiment(study.make_params(0));
  std::vector<std::uint8_t> batch;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    runtime::begin_result_batch(batch);
    runtime::append_result_ok_entry(batch, 0, result);
    const auto decoded = runtime::decode_result_batch_frame(batch);
    benchmark::DoNotOptimize(decoded.size());
    bytes += batch.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ResultBatchRoundTrip)->Unit(benchmark::kMicrosecond);

// Encode half of the round trip: worker-side cost per result.
void BM_ResultEncode(benchmark::State& state) {
  const auto study = bench_study(1);
  const auto result = runtime::run_experiment(study.make_params(0));
  std::vector<std::uint8_t> batch;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    runtime::begin_result_batch(batch);
    runtime::append_result_ok_entry(batch, 0, result);
    benchmark::DoNotOptimize(batch.data());
    bytes += batch.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ResultEncode)->Unit(benchmark::kMicrosecond);

// Decode half: parent-side cost per result (rehydrates the full object).
void BM_ResultDecode(benchmark::State& state) {
  const auto study = bench_study(1);
  const auto result = runtime::run_experiment(study.make_params(0));
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 0, result);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto decoded = runtime::decode_result_batch_frame(batch);
    benchmark::DoNotOptimize(decoded.size());
    bytes += batch.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ResultDecode)->Unit(benchmark::kMicrosecond);

// The coordinator's actual decode configuration: one ResultInterner per
// campaign run, so every result after a header's first hits the memoized
// timeline headers instead of re-parsing them. A multi-entry batch measures the
// steady state (hit path) rather than the first-result miss.
void BM_ResultBatchDecodeInterned(benchmark::State& state) {
  const auto study = bench_study(8);
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  for (std::uint32_t k = 0; k < 8; ++k)
    runtime::append_result_ok_entry(
        batch, k, runtime::run_experiment(study.make_params(static_cast<int>(k))));
  std::uint64_t bytes = 0;
  runtime::ResultInterner interner;
  for (auto _ : state) {
    const auto decoded = runtime::decode_result_batch_frame(batch, &interner);
    benchmark::DoNotOptimize(decoded.size());
    bytes += batch.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["header_hit_rate"] =
      static_cast<double>(interner.header_hits()) /
      static_cast<double>(interner.header_hits() + interner.header_misses());
}
BENCHMARK(BM_ResultBatchDecodeInterned)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
