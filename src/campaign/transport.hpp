// Pluggable byte transports between a campaign parent and its workers.
//
// A Transport spawns (or attaches to) workers and hands back one WorkerLink
// per worker: a full-duplex, frame-oriented channel. Transports move bytes
// only — the worker *protocol* (Hello/Lease/ResultBatch/..., see
// runtime/serialize.hpp and campaign/remote_runner.hpp) is layered on top
// by RemoteRunner on the parent side and serve_worker on the worker side,
// so every backend shares one protocol implementation and one conformance
// test suite.
//
// Backends:
//   SubprocessTransport   fork()s workers that inherit the campaign's
//                         study closures (no wire identity needed), framed
//                         over pipes (util/pipe_io.hpp).
//   SshTransport          exec's `ssh <host> <worker command>` per host —
//                         the same frame protocol over an ssh stdio tunnel
//                         to `lokimeasure --worker --serve`.
//   FakeTransport         in-process worker threads over in-memory frame
//                         queues, with scripted fault injection (kill,
//                         hang, EOF, corrupt, truncate, drop, delay) so
//                         runner crash-tolerance is testable
//                         deterministically.
//
// Threading contract: send() and recv() may be called concurrently from
// different threads (RemoteRunner sends leases from its main thread while a
// reader thread blocks in recv), but each direction has a single caller.
// recv() has no timeout: it blocks until a frame arrives or the stream
// ends, and a silent worker is judged by the coordinator's clock
// (RemoteRunner), not by the link. kill() may be called from any thread and
// must promptly end a pending recv(). Links must not outlive their
// Transport.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/experiment.hpp"

namespace loki::campaign {

/// One worker's duplex frame channel, parent side.
class WorkerLink {
 public:
  virtual ~WorkerLink();

  /// Ship one frame to the worker. Throws std::runtime_error when the
  /// worker is gone (EPIPE et al.).
  virtual void send(const std::vector<std::uint8_t>& frame) = 0;

  /// Block until the next frame; std::nullopt once the worker's stream has
  /// ended (exit, crash, kill). Throws codec::DecodeError when the stream
  /// is corrupt (bad length prefix, mid-frame EOF).
  virtual std::optional<std::vector<std::uint8_t>> recv() = 0;

  /// Idempotent hard-stop (SIGKILL or equivalent). A blocked recv() ends
  /// promptly afterwards; buffered-but-undelivered frames may be lost.
  virtual void kill() = 0;

  /// Human-readable identity for error messages ("pid 4242", "host db3").
  virtual std::string describe() const = 0;

  /// True when the worker needs the studies inside the Hello frame (exec'd
  /// remote workers). fork()-based workers inherit them in memory, which
  /// keeps arbitrary closures working without a wire identity.
  virtual bool needs_study_bytes() const { return true; }
};

class Transport {
 public:
  virtual ~Transport();

  virtual std::string name() const = 0;
  virtual int worker_count() const = 0;

  /// Spawn/attach worker `index` (0-based, < worker_count()) for one
  /// campaign run over `studies`. fork()-based transports capture the
  /// studies in the child; the caller still performs the Hello handshake
  /// over the returned link. Throws on spawn failure (the caller decides
  /// whether losing one worker is fatal).
  virtual std::unique_ptr<WorkerLink> connect(
      int index, const std::vector<runtime::StudyParams>& studies) = 0;
};

/// Worker-side view of the same duplex channel — what serve_worker speaks,
/// so the protocol loop runs identically in an exec'd ssh worker (fds), a
/// forked child (fds), and a FakeTransport thread (queues).
class FrameChannel {
 public:
  virtual ~FrameChannel();
  /// Next frame from the parent; std::nullopt once the parent is gone.
  virtual std::optional<std::vector<std::uint8_t>> read() = 0;
  virtual void write(const std::vector<std::uint8_t>& frame) = 0;
};

/// FrameChannel over a pair of file descriptors (not owned).
class FdFrameChannel final : public FrameChannel {
 public:
  FdFrameChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {}
  std::optional<std::vector<std::uint8_t>> read() override;
  void write(const std::vector<std::uint8_t>& frame) override;

 private:
  int in_fd_;
  int out_fd_;
};

/// Single-threaded FrameChannel over in-memory queues: preload the
/// parent->worker frames with push(), drive serve_worker inline on the
/// calling thread, then inspect written(). No locking — this is the
/// benchmark/unit-test harness for the worker protocol loop (BM_WorkerLoop
/// measures serve_worker's steady-state floor through it); FakeTransport
/// has its own threaded channel for cross-thread fault injection.
class QueueFrameChannel final : public FrameChannel {
 public:
  /// Enqueue one parent->worker frame; read() consumes them in order and
  /// reports end-of-stream once the queue is drained.
  void push(std::vector<std::uint8_t> frame) {
    inbox_.push_back(std::move(frame));
  }

  std::optional<std::vector<std::uint8_t>> read() override {
    if (inbox_.empty()) return std::nullopt;
    std::vector<std::uint8_t> frame = std::move(inbox_.front());
    inbox_.pop_front();
    return frame;
  }

  void write(const std::vector<std::uint8_t>& frame) override {
    written_.push_back(frame);
  }

  /// Every worker->parent frame, in write order.
  const std::vector<std::vector<std::uint8_t>>& written() const {
    return written_;
  }
  /// Drop both queues (benchmark iterations reuse one channel).
  void reset() {
    inbox_.clear();
    written_.clear();
  }

 private:
  std::deque<std::vector<std::uint8_t>> inbox_;
  std::vector<std::vector<std::uint8_t>> written_;
};

namespace detail {
struct FdRegistry;  // open parent-side fds, closed inside fork()ed children
struct FakeWorker;

/// Scripted fault plan for one FakeTransport victim (see FakeTransport).
/// The *_after thresholds count delivered result *entries* (experiments);
/// the *_nth counters are 1-based over ResultBatch *frames* as the parent
/// receives them. -1 disables a fault.
struct FakeFaults {
  int kill_after{-1};
  int eof_after{-1};
  int hang_after{-1};
  int corrupt_nth{-1};
  int truncate_nth{-1};
  int drop_nth{-1};
  int delay_nth{-1};
  std::chrono::milliseconds delay{0};
  /// Heartbeat transit fault: after `drop_heartbeats_after` heartbeat
  /// frames were delivered (0 = none ever arrive), later ones vanish. -1
  /// disables. Result frames are unaffected — this scripts a worker whose
  /// liveness signal (not its work) is lost.
  int drop_heartbeats_after{-1};
};

/// Process-wide count of FakeWorker threads that had to detach because
/// their own teardown ran the join (the thread held the last reference to
/// its own worker). The join discipline — owners join via stop_and_join,
/// a serving thread never destroys its own FakeWorker — keeps this at 0;
/// the regression test in transport_test.cpp pins that down.
std::uint64_t fake_worker_self_detaches();
}  // namespace detail

class SubprocessTransport final : public Transport {
 public:
  /// Each worker is a forked child running serve_worker on the inherited
  /// studies — arbitrary make_params closures work unchanged.
  explicit SubprocessTransport(int workers);

  std::string name() const override;
  int worker_count() const override { return workers_; }
  std::unique_ptr<WorkerLink> connect(
      int index, const std::vector<runtime::StudyParams>& studies) override;

 private:
  int workers_;
  std::shared_ptr<detail::FdRegistry> registry_;
};

/// Parse a hostfile: one host per line, '#' comments and blanks ignored.
/// Throws ConfigError when empty or when a host contains whitespace.
std::vector<std::string> parse_hostfile(const std::string& text,
                                        const std::string& origin);

class SshTransport final : public Transport {
 public:
  /// One worker per hostfile line (list a host twice for two workers).
  /// `ssh_binary` is overridable so tests can substitute a local shim.
  explicit SshTransport(
      std::vector<std::string> hosts,
      std::vector<std::string> remote_command = {"lokimeasure", "--worker",
                                                 "--serve"},
      std::string ssh_binary = "ssh");

  std::string name() const override;
  int worker_count() const override { return static_cast<int>(hosts_.size()); }
  std::unique_ptr<WorkerLink> connect(
      int index, const std::vector<runtime::StudyParams>& studies) override;

  /// The exec argv for worker `index` — exposed for tests.
  std::vector<std::string> worker_argv(int index) const;

 private:
  std::vector<std::string> hosts_;
  std::vector<std::string> remote_command_;
  std::string ssh_binary_;
  std::shared_ptr<detail::FdRegistry> registry_;
};

/// In-process transport for tests: each worker is a thread speaking the
/// worker protocol over in-memory frame queues (including the Hello-framed
/// studies, so wire encode/decode is exercised end to end). Faults are
/// scripted before the campaign runs, per *victim*: victim k is the k-th
/// connected link to be sent a Lease, whichever worker slot it occupies. A
/// scripted fault therefore always lands on a link that has work, however
/// the handshakes race. victim_slot(k) names the slot victim k landed on.
/// The *_after_results thresholds count result entries as the parent
/// receives them; the Nth-batch faults count result-bearing frames
/// (1-based). Workers default to one result per batch (batch_soft_bytes =
/// 1), so entry counts and frame counts coincide unless a test raises the
/// batch bound via set_batch_soft_bytes to exercise multi-result batches.
class FakeTransport final : public Transport {
 public:
  explicit FakeTransport(int workers);
  ~FakeTransport() override;

  std::string name() const override;
  int worker_count() const override { return workers_; }
  /// Spawns the slot's worker thread, first joining the one a previous
  /// run's connect left there.
  std::unique_ptr<WorkerLink> connect(
      int index, const std::vector<runtime::StudyParams>& studies) override;

  /// Worker-side ResultBatch flush bound for subsequently connected
  /// workers. Default 1: every result flushes its own batch.
  void set_batch_soft_bytes(std::size_t bytes) { batch_soft_bytes_ = bytes; }

  /// SIGKILL equivalent: after `n` results were delivered, the stream ends
  /// and the worker thread is torn down; queued frames are lost.
  void kill_after_results(int victim, int n);
  /// Clean mid-lease close: the stream ends after `n` results while the
  /// worker may still be running.
  void eof_after_results(int victim, int n);
  /// The worker goes silent after `n` results: no frames, no end of stream
  /// — the parent must detect it by the silence.
  void hang_after_results(int victim, int n);
  /// The `nth` result-bearing frame (1-based) arrives corrupted: its first
  /// status byte is clobbered to an out-of-range value, which the batch
  /// decoder must reject with a typed error before any entry escapes.
  void corrupt_batch(int victim, int nth);
  /// The `nth` result-bearing frame (1-based) arrives truncated (its tail
  /// cut mid-payload) — a framing-layer short read the decoder must reject.
  void truncate_batch(int victim, int nth);
  /// The `nth` result-bearing frame (1-based) vanishes in transit.
  void drop_batch(int victim, int nth);
  /// The `nth` result-bearing frame (1-based) is delayed by `by`.
  void delay_batch(int victim, int nth, std::chrono::milliseconds by);
  /// Heartbeats past the first `n` vanish in transit (0 = all of them);
  /// result frames still flow. With a large batch bound this makes a busy,
  /// healthy worker look silent — the hung-worker drill.
  void drop_heartbeats_after(int victim, int n);

  /// The worker slot victim `victim` landed on; -1 while unclaimed.
  int victim_slot(int victim) const;

 private:
  detail::FakeFaults& script(int victim);

  int workers_;
  std::size_t batch_soft_bytes_{1};
  std::vector<detail::FakeFaults> scripts_;  // per victim
  std::vector<int> victim_slots_;  // slot of each claimed victim, in order
  std::vector<std::shared_ptr<detail::FakeWorker>> live_;
};

}  // namespace loki::campaign
