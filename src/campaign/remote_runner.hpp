// Crash-tolerant multi-worker campaign execution over a pluggable
// Transport (campaign/transport.hpp).
//
// RemoteRunner shards a campaign through a dynamic work queue: the
// campaign's planned indices are split into small leases, idle workers pull
// the next lease, and the parent reassembles results into the serial emit
// order. One fleet serves the whole Campaign::run: it is
// connected and handshaken once, every worker holds every study (fork()ed
// workers inherit them, exec'd workers get them in the Hello), each Lease
// names its study, and the plan is pulled ahead of the leases, so study k+1
// is leased while study k drains. Near the end of the plan, leases taper to
// a share of what is left so the last ones spread over the fleet.
//
// Because run_experiment is deterministic in its params, a lease that is
// re-run after a worker died produces byte-identical results, so crash
// recovery never perturbs the campaign's output — the serial == threads ==
// procs == remote identity invariant survives faults.
//
// Failure handling, per worker:
//   * stream EOF (crash, SIGKILL, ssh drop) -> outstanding lease indices
//     are requeued to the survivors;
//   * silence past Options::hang_timeout    -> the worker is killed and its
//     lease requeued (heartbeat + result frames are the liveness signal);
//   * a corrupt frame                       -> ditto (the stream cannot be
//     resynchronized after a framing error);
//   * a LeaseDone with unaccounted indices  -> the missing indices are
//     requeued, the worker stays in rotation.
// Silence is judged on the coordinator's own clock: a worker is hung once
// hang_timeout has passed since the latest of its last frame, its lease
// send, and its connect. Links have no timeout of their own: a reader
// blocks in recv() until a frame, the stream's end, or the kill() that a
// hung verdict sends.
// Requeue/lost counts surface through Runner::telemetry() and
// Campaign::Summary. Each worker slot holds one link for the whole run: a
// lost worker stays lost for the rest of the campaign, and the survivors
// drain its requeued indices. When the last worker dies with work
// remaining, the runner throws std::runtime_error — so a worker that
// crashes on the same experiment every time fails the campaign instead of
// looping.
//
// Contract (the Runner contract of campaign/runner.hpp):
//   * emit(s, k, result) exactly once per planned (s, k), in increasing
//     (s, k), on the calling thread;
//   * failure-prefix semantics: if planned experiment (s, k) itself fails
//     (generator, validation, run), every planned index before it is
//     emitted, then its exception is rehydrated by wire category and
//     rethrown; nothing past it is emitted. Worker *loss* is not an
//     experiment failure — it is recovered by requeueing.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/transport.hpp"

namespace loki::campaign {

struct RemoteOptions {
  /// Indices in each worker's first lease. After every cleanly completed
  /// lease the campaign-wide span follows the worker's heartbeat EWMA
  /// latency: it doubles, up to 32, while a lease would finish in under
  /// half of 250 ms, and halves, down to 1, when one would overrun 500 ms.
  /// A larger first span is used as given (the tuner only grows spans up to
  /// 32). Near the end of the plan a lease is cut to ceil(pending /
  /// (2 * live workers)). Small leases shrink the requeue blast radius;
  /// large ones amortize frame round-trips. Lease geometry never reaches
  /// the results.
  int lease_size{2};
  /// A worker silent for this long while holding a lease (or during the
  /// handshake) is declared hung, killed, and its lease requeued. Workers
  /// heartbeat every hang_timeout / 4, so a slow-but-alive worker always has
  /// several chances per window. Must comfortably exceed the slowest single
  /// experiment.
  std::chrono::milliseconds hang_timeout{30'000};
};

class RemoteRunner final : public Runner {
 public:
  explicit RemoteRunner(std::shared_ptr<Transport> transport,
                        RemoteOptions options = {});

  std::string name() const override;
  void run(const std::vector<runtime::StudyParams>& studies,
           const NextFn& next, const EmitFn& emit) override;
  RunnerTelemetry telemetry() const override { return telemetry_; }

 private:
  std::shared_ptr<Transport> transport_;
  RemoteOptions options_;
  RunnerTelemetry telemetry_;
};

/// Worker-side knobs for serve_worker.
struct ServeOptions {
  /// Flush the accumulated ResultBatch frame once it reaches this many
  /// bytes. The bound is soft: the entry that crosses it still joins the
  /// batch, then the batch is sent. 1 yields one result per batch (the
  /// fault-injection harness uses this to keep per-result scripts exact);
  /// a lease always flushes whatever remains before LeaseDone.
  std::size_t batch_soft_bytes{64 * 1024};
};

/// Worker-side protocol loop, shared by every backend: handshake on Hello
/// (adopting the framed studies, or `inherited_studies` for fork()ed
/// children; a Hello without studies to a worker that inherited none is a
/// protocol violation), then serve Lease frames until Shutdown or EOF.
/// A lease that names a study past the campaign's last, or reaches past its
/// study's last index, is a protocol violation: the loop throws before
/// running anything or writing any frame.
/// A lease's results accumulate into ResultBatch frames in a buffer reused
/// across leases (bounded by ServeOptions::batch_soft_bytes, flushed at
/// lease end).
/// While a lease runs, the loop emits a Heartbeat frame — carrying this
/// worker's cumulative WorkerStatsSnapshot — whenever the Hello's heartbeat
/// interval elapses without any other write, plus one right before
/// LeaseDone, so a slow-but-healthy worker is never silent for longer than
/// the interval.
/// Experiment failures travel back as error batch entries (ending the lease
/// early); a protocol violation throws — the caller turns that into a
/// nonzero exit.
void serve_worker(FrameChannel& channel,
                  const std::vector<runtime::StudyParams>* inherited_studies,
                  const ServeOptions& options = {});

}  // namespace loki::campaign
