// Crash-tolerant multi-worker campaign execution over a pluggable
// Transport (campaign/transport.hpp).
//
// RemoteRunner replaces static round-robin sharding with dynamic work-queue
// sharding: the study's indices are split into small leases, idle workers
// pull the next lease, and the parent reassembles results into the serial
// emit order. Because run_experiment is deterministic in its params, a
// lease that is re-run after a worker died produces byte-identical results,
// so crash recovery never perturbs the campaign's output — the
// serial == threads == procs == remote identity invariant survives faults.
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
// Requeue/lost counts surface through Runner::telemetry() and
// Campaign::Summary. With Options::reconnect_attempts > 0, a lost worker's
// slot is reopened through the transport (exponential backoff with jitter);
// a rejoined worker re-handshakes and pulls leases again. When the last
// worker dies with work remaining and no reconnect is pending, the runner
// throws std::runtime_error.
//
// Contract (matching SerialRunner / ThreadPoolRunner):
//   * emit(k, result) exactly once per index, in increasing k, on the
//     calling thread;
//   * failure-prefix semantics: if experiment k itself fails (generator,
//     validation, run), the completed prefix 0..k-1 is emitted, then k's
//     exception is rehydrated by wire category and rethrown; no index past
//     k is emitted. Worker *loss* is not an experiment failure — it is
//     recovered by requeueing.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/transport.hpp"

namespace loki::campaign {

struct RemoteOptions {
  /// Indices per lease — the *initial* span when autotuning is on, the
  /// fixed span otherwise. Small leases spread load and shrink the requeue
  /// blast radius; large leases amortize frame round-trips.
  int lease_size{2};
  /// Adapt the lease span to observed per-experiment latency: after each
  /// completed lease the span doubles while a lease finishes in under half
  /// of lease_target, and halves when one overruns it twofold — a bounded
  /// multiplicative rule ([1, max_lease_size]) that converges within a few
  /// leases. Fast experiments stop paying a frame round-trip every other
  /// experiment; slow ones keep the requeue blast radius small. Byte-
  /// identity is unaffected (lease geometry never reaches the results).
  bool autotune_lease{true};
  std::chrono::milliseconds lease_target{250};
  int max_lease_size{64};
  /// A worker silent for longer than this while holding a lease (or during
  /// the handshake) is declared hung, killed, and its lease requeued. Must
  /// comfortably exceed the slowest single experiment.
  std::chrono::milliseconds hang_timeout{30'000};
  /// How often a busy worker must emit a Heartbeat frame (between
  /// experiments and between batch flushes), shipped to workers in the
  /// Hello frame. 0 (the default) resolves to hang_timeout / 4, so a
  /// healthy worker always has several heartbeat opportunities per timeout
  /// window — a slow-but-alive worker grinding through a long autotuned
  /// lease is never mistaken for a hung one.
  std::chrono::milliseconds heartbeat_interval{0};
  /// How long to wait for workers to exit after Shutdown before killing
  /// them at teardown.
  std::chrono::milliseconds shutdown_grace{2'000};
  /// Reconnect policy: after a worker link is lost (EOF, hang-kill, corrupt
  /// stream), try Transport::reopen up to this many times before writing
  /// the slot off. 0 (the default) disables reconnection — a lost worker
  /// stays lost, the pre-reconnect behaviour. The budget is per loss: a
  /// worker that rejoins and dies again gets a fresh set of attempts.
  /// Requeued indices are NOT held back for the reconnect — survivors keep
  /// draining the queue, and the rejoined worker simply pulls the next
  /// lease; with no survivors the campaign stalls (rather than aborting)
  /// until an attempt succeeds or the budget runs out.
  int reconnect_attempts{0};
  /// Delay before the first reopen attempt; doubles after each failure up
  /// to reconnect_backoff_max. Each wait is jittered to 75%..125% so a
  /// fleet lost to one network blip does not retry in lockstep (a fixed-seed
  /// util::Rng: deterministic, and byte-identity of campaign output is
  /// unaffected either way — reconnect timing never reaches the results).
  std::chrono::milliseconds reconnect_backoff{100};
  std::chrono::milliseconds reconnect_backoff_max{5'000};
};

class RemoteRunner final : public Runner {
 public:
  explicit RemoteRunner(std::shared_ptr<Transport> transport,
                        RemoteOptions options = {});

  std::string name() const override;
  int parallelism() const override;
  void run_study(const runtime::StudyParams& study, const EmitFn& emit) override;
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
  /// Fallback heartbeat cadence when the parent's Hello carries no interval
  /// (heartbeat_interval_ms == 0, e.g. a parent keeping the field at its
  /// default or a hand-built handshake). A Hello-supplied interval always
  /// wins.
  std::chrono::milliseconds heartbeat_interval{7'500};
};

/// Worker-side protocol loop, shared by every backend: handshake on Hello
/// (adopting the framed study, or `inherited_study` for fork()ed children),
/// then serve Lease/Ping frames until Shutdown or EOF. A lease that reaches
/// past the study's last index is a protocol violation: the loop throws
/// before running anything (not even the opening heartbeat goes out).
/// A lease's results accumulate into ResultBatch frames in a buffer reused
/// across leases (bounded by ServeOptions::batch_soft_bytes, flushed at
/// lease end).
/// While a lease runs, the loop emits a Heartbeat frame — carrying this
/// worker's cumulative WorkerStatsSnapshot — whenever the resolved
/// heartbeat interval elapses without any other write, plus one at lease
/// start and one right before LeaseDone, so a slow-but-healthy worker is
/// never silent for longer than the interval.
/// Experiment failures travel back as error batch entries (ending the lease
/// early); a protocol violation throws — the caller turns that into a
/// nonzero exit.
void serve_worker(FrameChannel& channel,
                  const runtime::StudyParams* inherited_study,
                  const ServeOptions& options = {});

}  // namespace loki::campaign
