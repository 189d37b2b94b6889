#include "campaign/remote_runner.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/pulled_plan.hpp"
#include "campaign/validate.hpp"
#include "runtime/experiment_context.hpp"
#include "runtime/serialize.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

namespace {

using runtime::WorkerFrame;

using Clock = std::chrono::steady_clock;

constexpr int kNoFailure = std::numeric_limits<int>::max();

/// Lease autotuning: a lease should take about kLeaseTarget, and the tuner
/// grows spans no further than kMaxLeaseSize. The cap also bounds the
/// coordinator's memory: a fleet of N workers keeps up to N + 1 spans of
/// results in flight (see Engine::window), most of them decoded in the
/// reorder buffer.
constexpr std::chrono::milliseconds kLeaseTarget{250};
constexpr int kMaxLeaseSize = 32;
/// How long teardown waits for workers to exit after Shutdown before
/// killing them.
constexpr std::chrono::milliseconds kShutdownGrace{2'000};

/// What a reader thread observed on its link. Eof and Corrupt are terminal:
/// the reader pushes one and exits.
struct Event {
  enum class Kind { Frame, Eof, Corrupt };
  int worker{-1};
  Kind kind{Kind::Eof};
  std::vector<std::uint8_t> frame;
  std::string detail;
};

class EventQueue {
 public:
  void push(Event e) LOKI_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      events_.push_back(std::move(e));
    }
    cv_.notify_all();
  }

  Event pop() LOKI_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    while (events_.empty()) cv_.wait(mu_);
    Event e = std::move(events_.front());
    events_.pop_front();
    return e;
  }

  std::optional<Event> pop_until(Clock::time_point deadline)
      LOKI_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    while (events_.empty()) {
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout &&
          events_.empty())
        return std::nullopt;
    }
    Event e = std::move(events_.front());
    events_.pop_front();
    return e;
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Event> events_ LOKI_GUARDED_BY(mu_);
};

/// A run of campaign-wide positions [lo, hi) awaiting a worker (see
/// Segment).
struct Chunk {
  int lo{0};
  int hi{0};
};

/// One worker slot: a single link for the whole run. A lost link is never
/// replaced — the slot stays dead and the survivors take over its work.
struct WorkerState {
  std::unique_ptr<WorkerLink> link;
  std::thread reader;
  bool alive{false};       // link usable (spawned, not lost)
  bool handshaken{false};  // HelloAck received
  bool idle{false};        // handshaken and not holding a lease
  std::uint32_t lease_id{0};
  Segment lease;                // the current (or last) lease
  std::set<int> outstanding;    // leased positions without a result yet
  /// Engine-clock start of the current silence: the latest of the last
  /// handled frame, the last lease send and the connect. A worker that owes
  /// a frame is hung once hang_timeout has passed since then.
  Clock::time_point quiet_since;
  /// Worker-reported EWMA per-experiment latency from the latest Heartbeat
  /// (µs; 0 until the first heartbeat carries stats) — the autotuner's one
  /// input: pure experiment time, no queueing or transit.
  double ewma_latency_us{0.0};

  /// Handshaking or leased: silence past hang_timeout means hung. Only an
  /// idle worker may sit silent. Keying on idleness (not on outstanding
  /// results) also catches a worker that wedges after its lease's last
  /// result but before LeaseDone — nothing is left to requeue, yet it must
  /// be killed, or it would stay busy forever and silently shrink the
  /// fleet (or hang a single-worker campaign outright).
  bool owes_frame() const { return alive && (!handshaken || !idle); }
};

/// One Runner::run execution: a single-threaded event loop over per-worker
/// reader threads, and one fleet for the whole campaign. The plan is pulled
/// ahead of the leases (see lookahead), so study k+1 is leased while study
/// k drains. All state below is touched only by the calling thread; readers
/// communicate exclusively through the EventQueue.
class Engine {
 public:
  Engine(Transport& transport, const RemoteOptions& options,
         const std::vector<runtime::StudyParams>& studies, const NextFn& next,
         const EmitFn& emit, RunnerTelemetry& telemetry)
      : transport_(transport),
        options_(options),
        studies_(studies),
        next_(next),
        emit_(emit),
        telemetry_(telemetry),
        lease_now_(options.lease_size) {}

  void run() {
    // Enough of the plan for every worker's first lease, or all of it. A
    // plan the runner never has to execute (every index cached or
    // replayed) connects no fleet at all.
    pull_until(lookahead(transport_.worker_count()));
    if (pending_ == 0) return;
    const int spawn = std::min(transport_.worker_count(),
                               (pending_ + lease_now_ - 1) / lease_now_);
    // Fresh per-worker telemetry slots for this run's fleet; the cumulative
    // counters (requeues, requeued_indices, workers_lost) carry over so
    // Campaign::Summary's before/after delta stays meaningful.
    telemetry_.workers.assign(static_cast<std::size_t>(spawn),
                              WorkerTelemetry{});
    telemetry_.final_lease_size = lease_now_;

    struct TeardownGuard {
      Engine& engine;
      bool armed{true};
      ~TeardownGuard() {
        if (armed) engine.teardown();
      }
    } guard{*this};

    workers_.resize(static_cast<std::size_t>(spawn));
    for (int w = 0; w < spawn; ++w) connect_worker(w);
    if (live_count() == 0)
      throw std::runtime_error(
          "remote runner: no workers could be started over " +
          transport_.name());
    for (int w = 0; w < spawn; ++w) {
      WorkerState& ws = workers_[static_cast<std::size_t>(w)];
      if (!ws.alive) continue;
      ++readers_started_;
      ws.reader = std::thread(
          [this, w, link = ws.link.get()] { reader_loop(w, link); });
    }

    while (!done()) {
      drain();
      assign();
      if (!done() && live_count() == 0)
        throw std::runtime_error(
            "remote runner: all " + std::to_string(spawn) +
            " workers lost with " + std::to_string(unfinished()) +
            " planned experiments unfinished (" +
            std::to_string(telemetry_.requeues) + " requeues)");
      if (done()) break;
      // Wake at the next hang deadline even if no worker ever produces
      // another event (a wedged fleet).
      const std::optional<Clock::time_point> wake = next_deadline();
      std::optional<Event> event = wake.has_value()
                                       ? events_.pop_until(*wake)
                                       : std::optional<Event>(events_.pop());
      if (event.has_value())
        handle(*event);
      else
        lose_hung_workers();
    }

    guard.armed = false;
    teardown();
    if (fail_pos_ != kNoFailure)
      runtime::rethrow_wire_error(fail_category_, fail_message_);
  }

 private:
  // --- spawning --------------------------------------------------------------

  void connect_worker(int w) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    WorkerTelemetry& wt = telemetry_.workers[static_cast<std::size_t>(w)];
    try {
      ws.link = transport_.connect(w, studies_);
    } catch (const std::exception&) {
      ++telemetry_.workers_lost;
      wt.lost = true;
      return;
    }
    wt.describe = ws.link->describe();
    wt.last_seen = Clock::now();
    // A study that cannot be encoded for a transport that needs it on the
    // wire is a configuration error, not a lost worker — let it propagate.
    const std::vector<std::uint8_t>& hello = hello_for(*ws.link);
    try {
      ws.link->send(hello);
      ws.alive = true;
      ws.quiet_since = Clock::now();
    } catch (const std::exception&) {
      ++telemetry_.workers_lost;
      wt.lost = true;
      ws.link->kill();
    }
  }

  /// The Hello for `link`, encoded once per run: with every study for a
  /// worker that needs their bytes, without for a fork()ed one. It asks for
  /// a heartbeat every hang_timeout / 4, several chances per timeout window.
  const std::vector<std::uint8_t>& hello_for(const WorkerLink& link) {
    const bool with_studies = link.needs_study_bytes();
    std::vector<std::uint8_t>& hello =
        with_studies ? hello_with_studies_ : hello_inherited_;
    if (hello.empty())
      hello = runtime::encode_hello_frame(
          with_studies ? &studies_ : nullptr,
          static_cast<std::uint32_t>(std::clamp<std::int64_t>(
              (options_.hang_timeout / 4).count(), 1,
              std::numeric_limits<std::uint32_t>::max())));
    return hello;
  }

  // --- reader threads --------------------------------------------------------

  /// Blocks in recv() for the link's whole life. Silence is the engine's
  /// call (lose_hung_workers): it kill()s a hung worker, which ends the
  /// reader's recv.
  void reader_loop(int w, WorkerLink* link) {
    for (;;) {
      std::optional<std::vector<std::uint8_t>> frame;
      try {
        frame = link->recv();
      } catch (const codec::DecodeError& e) {
        events_.push({w, Event::Kind::Corrupt, {}, e.what()});
        return;
      } catch (const std::exception& e) {
        events_.push({w, Event::Kind::Eof, {}, e.what()});
        return;
      }
      if (!frame.has_value()) {
        events_.push({w, Event::Kind::Eof, {}, {}});
        return;
      }
      events_.push({w, Event::Kind::Frame, std::move(*frame), {}});
    }
  }

  // --- event handling --------------------------------------------------------

  void handle(const Event& event) {
    switch (event.kind) {
      case Event::Kind::Frame:
        on_frame(event.worker, event.frame);
        break;
      case Event::Kind::Eof:
        ++readers_finished_;
        lose_worker(event.worker, "stream closed" +
                                      (event.detail.empty()
                                           ? std::string()
                                           : " (" + event.detail + ")"));
        break;
      case Event::Kind::Corrupt:
        ++readers_finished_;
        lose_worker(event.worker, "corrupt stream: " + event.detail);
        break;
    }
  }

  void on_frame(int w, const std::vector<std::uint8_t>& frame) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    if (!ws.alive) return;  // a straggler frame from a worker we gave up on
    // Any frame is a liveness signal; the --status view renders this as a
    // last-seen age.
    ws.quiet_since = Clock::now();
    telemetry_.workers[static_cast<std::size_t>(w)].last_seen = ws.quiet_since;
    try {
      switch (runtime::worker_frame_type(frame)) {
        case WorkerFrame::HelloAck: {
          const std::uint16_t version = runtime::decode_hello_ack_frame(frame);
          if (version != runtime::kWorkerProtocolVersion)
            throw std::runtime_error(
                "remote runner: " + ws.link->describe() +
                " speaks worker protocol v" + std::to_string(version) +
                ", this build v" +
                std::to_string(runtime::kWorkerProtocolVersion) +
                " — refusing to mix");
          ws.handshaken = true;
          ws.idle = true;
          break;
        }
        case WorkerFrame::Heartbeat:
          // Liveness came from the arrival itself; the payload is the
          // worker's cumulative stats snapshot.
          on_heartbeat(w, runtime::decode_heartbeat_frame(frame));
          break;
        case WorkerFrame::ResultBatch: {
          // All-or-nothing: decode_result_batch_frame throws on any
          // malformed entry before a single result escapes, so a corrupt
          // batch ends up in the catch below and the whole lease requeues.
          std::vector<runtime::ResultFrame> entries =
              runtime::decode_result_batch_frame(frame, &interner_);
          for (runtime::ResultFrame& entry : entries)
            on_result(ws, std::move(entry));
          break;
        }
        case WorkerFrame::LeaseDone:
          on_lease_done(w, runtime::decode_lease_done_frame(frame));
          break;
        default:
          // Hello/Lease/Shutdown never flow worker -> parent.
          throw codec::DecodeError("unexpected parent-bound frame type");
      }
    } catch (const codec::DecodeError& e) {
      lose_worker(w, std::string("protocol violation: ") + e.what());
    }
  }

  /// A result belongs to the worker's current lease (a worker serves one
  /// lease at a time and its frames arrive in order), which places its
  /// index at a campaign-wide position.
  void on_result(WorkerState& ws, runtime::ResultFrame&& result) {
    if (result.index < static_cast<std::uint32_t>(ws.lease.lo) ||
        result.index >= static_cast<std::uint32_t>(ws.lease.hi))
      throw codec::DecodeError(
          "result index " + std::to_string(result.index) + " outside lease [" +
          std::to_string(ws.lease.lo) + ", " + std::to_string(ws.lease.hi) +
          ") of study " + std::to_string(ws.lease.study));
    const int pos =
        ws.lease.pos + (static_cast<int>(result.index) - ws.lease.lo);
    ws.outstanding.erase(pos);
    if (!result.ok) {
      if (pos < fail_pos_) {
        fail_pos_ = pos;
        fail_category_ = result.category;
        fail_message_ = result.message;
      }
      return;
    }
    // Exactly-once emission: a requeued lease can reproduce an index that
    // already arrived from the original worker before it died.
    if (pos < next_emit_ || buffer_.contains(pos)) return;
    buffer_.emplace(pos, std::move(result.result));
  }

  /// Fold one heartbeat's stats into this worker's telemetry slot: latest
  /// snapshot, ring-buffered time series, and the autotuner's EWMA input.
  void on_heartbeat(int w, const runtime::WorkerStatsSnapshot& stats) {
    WorkerTelemetry& wt = telemetry_.workers[static_cast<std::size_t>(w)];
    wt.latest = stats;
    wt.recent.push_back({Clock::now(), stats});
    if (wt.recent.size() > WorkerTelemetry::kSnapshotRing)
      wt.recent.erase(wt.recent.begin());
    workers_[static_cast<std::size_t>(w)].ewma_latency_us =
        stats.ewma_latency_us;
  }

  void on_lease_done(int w, std::uint32_t lease_id) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    if (lease_id != ws.lease_id) return;  // stale echo of a requeued lease
    if (!ws.outstanding.empty()) {
      // A lease that errored legitimately skips its tail (all past the
      // failing index). Anything else missing was lost in transit: requeue
      // it and keep the worker — the stream itself is still framed.
      note_requeue(w, requeue_salvageable(ws));
      ws.outstanding.clear();
    } else {
      autotune(ws);  // clean completion: usable latency sample
    }
    ws.idle = true;
    telemetry_.workers[static_cast<std::size_t>(w)].busy = false;
  }

  /// Record one requeue event salvaging `salvaged` indices, attributed to
  /// worker `w`. No-op when nothing was salvageable (e.g. every missing
  /// index sits past a known failure).
  void note_requeue(int w, int salvaged) {
    if (salvaged <= 0) return;
    ++telemetry_.requeues;
    telemetry_.requeued_indices += salvaged;
    ++telemetry_.workers[static_cast<std::size_t>(w)].requeues;
  }

  /// Multiplicative lease-span adaptation from the worker's heartbeat EWMA
  /// latency: project how long the *current* span would take at that rate,
  /// then double while the projection undershoots half of kLeaseTarget
  /// (never past kMaxLeaseSize) and halve when it overshoots it twofold
  /// (never below 1). Leases already in flight are unaffected, and results
  /// are byte-identical for every span (the safety argument for tuning at
  /// all). A worker whose lease completed no experiment has no EWMA yet and
  /// leaves the span alone. One span serves the whole campaign.
  void autotune(const WorkerState& ws) {
    if (ws.ewma_latency_us <= 0.0) return;
    const std::chrono::duration<double, std::micro> projected(
        ws.ewma_latency_us * lease_now_);
    if (projected * 2 < kLeaseTarget) {
      if (lease_now_ < kMaxLeaseSize)
        lease_now_ = std::min(lease_now_ * 2, kMaxLeaseSize);
    } else if (projected > kLeaseTarget * 2) {
      lease_now_ = std::max(lease_now_ / 2, 1);
    }
    telemetry_.final_lease_size = lease_now_;
  }

  /// The earliest hang deadline among the workers that owe a frame: the
  /// moment the engine must act without an event. nullopt when only an
  /// event can make progress.
  std::optional<Clock::time_point> next_deadline() const {
    std::optional<Clock::time_point> next;
    for (const WorkerState& ws : workers_) {
      if (!ws.owes_frame()) continue;
      const Clock::time_point t = ws.quiet_since + options_.hang_timeout;
      if (!next.has_value() || t < *next) next = t;
    }
    return next;
  }

  /// Kill every worker that owes a frame and has been silent for
  /// hang_timeout on the engine's clock. Runs only when the event queue has
  /// drained, so a frame that arrived but is not yet handled can never make
  /// a live worker look silent.
  void lose_hung_workers() {
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerState& ws = workers_[w];
      if (ws.owes_frame() && now - ws.quiet_since >= options_.hang_timeout)
        lose_worker(static_cast<int>(w),
                    "no frame within " +
                        std::to_string(options_.hang_timeout.count()) +
                        "ms — presumed hung");
    }
  }

  void lose_worker(int w, const std::string& reason) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    if (!ws.alive) return;
    ws.alive = false;
    ws.idle = false;
    ++telemetry_.workers_lost;
    WorkerTelemetry& wt = telemetry_.workers[static_cast<std::size_t>(w)];
    wt.lost = true;
    wt.busy = false;
    // Diagnostics go to stderr (the campaign-output convention): a lost
    // worker must leave a cause and an identity, not just a counter.
    std::fprintf(stderr, "remote runner: lost %s: %s\n",
                 ws.link->describe().c_str(), reason.c_str());
    ws.link->kill();  // the reader unblocks with Eof and exits
    if (!ws.outstanding.empty()) {
      note_requeue(w, requeue_salvageable(ws));
      ws.outstanding.clear();
    }
  }

  /// Requeue this worker's outstanding positions that the campaign still
  /// needs (below any known failure), as contiguous runs. Returns how many
  /// indices were salvaged.
  int requeue_salvageable(WorkerState& ws) {
    std::vector<Chunk> runs;
    for (const int pos : ws.outstanding) {
      if (pos >= fail_pos_) break;  // the set is sorted
      if (!runs.empty() && runs.back().hi == pos) ++runs.back().hi;
      else runs.push_back({pos, pos + 1});
    }
    // Sorted insertion keeps the queue ordered by lo at all times, so the
    // head is the globally lowest pending position. assign() only examines
    // the head; if requeues merely pushed to the front, a later loss's
    // higher chunks could bury an earlier loss's low chunk behind an
    // out-of-window head and deadlock the campaign.
    int salvaged = 0;
    for (const Chunk& run : runs) {
      const auto at = std::lower_bound(
          queue_.begin(), queue_.end(), run,
          [](const Chunk& a, const Chunk& b) { return a.lo < b.lo; });
      queue_.insert(at, run);
      salvaged += run.hi - run.lo;
    }
    pending_ += salvaged;
    return salvaged;
  }

  // --- the pulled plan -------------------------------------------------------

  /// Pull study plans until `want` positions are pending or the plan is
  /// exhausted. Nothing more is pulled once an experiment failed: the
  /// campaign ends at that failure.
  void pull_until(int want) {
    while (!plan_done_ && fail_pos_ == kNoFailure && pending_ < want) {
      const std::optional<StudyPlan> plan = next_();
      if (!plan.has_value()) {
        plan_done_ = true;
        break;
      }
      const int from = plan_.planned();
      plan_.append(*plan);
      if (plan_.planned() == from) continue;
      // Every queued position sits below `from`, so appending keeps the
      // queue sorted; leases never straddle a segment (see assign).
      if (!queue_.empty() && queue_.back().hi == from)
        queue_.back().hi = plan_.planned();
      else
        queue_.push_back({from, plan_.planned()});
      pending_ += plan_.planned() - from;
    }
  }

  // --- scheduling ------------------------------------------------------------

  int live_count() const {
    int live = 0;
    for (const WorkerState& ws : workers_) live += ws.alive ? 1 : 0;
    return live;
  }

  /// Backpressure: how far past the drain cursor a lease may start, so the
  /// reorder buffer stays O(workers * lease span) even when one early lease
  /// is slow. A worker that finishes its lease takes the next one as soon
  /// as the lowest lease has delivered its first batch.
  int window() const { return live_count() * lease_now_; }

  /// How many positions to keep pulled ahead: twice each worker's span, so
  /// the taper (see assign) slices full spans until the plan runs dry.
  int lookahead(int workers) const { return 2 * workers * lease_now_; }

  int unfinished() const {
    const int stop = std::min(fail_pos_, plan_.planned());
    int have = 0;
    for (const auto& entry : buffer_) have += entry.first < stop ? 1 : 0;
    return stop - next_emit_ - have;
  }

  bool done() const {
    // A failure aborts as soon as the serial prefix is emitted — workers
    // still mid-lease are torn down, not awaited.
    if (fail_pos_ != kNoFailure) return next_emit_ >= fail_pos_;
    if (!plan_done_ || next_emit_ < plan_.planned()) return false;
    // Every result is in; now wait for each leased worker's trailing
    // Heartbeat + LeaseDone so the telemetry ledger is exact at the end
    // (per-worker experiments_completed sums to the run's total). A worker
    // wedged before its LeaseDone is still bounded by its hang deadline. A
    // worker still owing its HelloAck holds no lease and is not awaited:
    // teardown's Shutdown and grace period end it.
    for (const WorkerState& ws : workers_)
      if (ws.alive && ws.handshaken && !ws.idle) return false;
    return true;
  }

  void drain() {
    const int stop = std::min(fail_pos_, plan_.planned());
    while (next_emit_ < stop) {
      auto it = buffer_.find(next_emit_);
      if (it == buffer_.end()) break;
      auto node = buffer_.extract(it);
      const Segment& segment = plan_.segment_at(next_emit_);
      const int study = segment.study;
      const int index = segment.index_at(next_emit_);
      ++next_emit_;
      emit_(study, index, std::move(node.mapped()));
    }
  }

  void assign() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerState& ws = workers_[w];
      if (!ws.alive || !ws.idle) continue;
      // Keep the plan pulled ahead, so the next study is leased while this
      // one drains.
      pull_until(lookahead(live_count()));
      // Drop work at/past a known failure before looking at the head.
      while (!queue_.empty() && queue_.front().lo >= fail_pos_) {
        pending_ -= queue_.front().hi - queue_.front().lo;
        queue_.pop_front();
      }
      if (queue_.empty()) return;
      // A stale out-of-window head cannot stall the campaign: once the busy
      // workers drain, next_emit has caught up to the lowest pending
      // position, which is the head.
      if (queue_.front().lo >= next_emit_ + window()) continue;
      // Slice one lease off the head chunk, inside one segment. Taper: at
      // most a 1 / (2 * live) share of the pending positions, so the
      // campaign's last leases spread over the fleet instead of parking
      // idle workers behind one full span. While the plan is not exhausted,
      // the lookahead keeps enough pending that the share is a full span.
      Chunk& head = queue_.front();
      const Segment& segment = plan_.segment_at(head.lo);
      const int share = 2 * live_count();
      const int span = std::min(lease_now_, (pending_ + share - 1) / share);
      const int hi =
          std::min({head.hi, head.lo + span, segment.end(), fail_pos_});
      if (hi <= head.lo) return;  // unreachable: head.lo < fail_pos_
      const Segment lease{segment.study, segment.index_at(head.lo),
                          segment.index_at(hi), head.lo};
      pending_ -= hi - head.lo;
      if (hi >= head.hi)
        queue_.pop_front();
      else
        head.lo = hi;
      ws.lease_id = ++lease_seq_;
      ws.lease = lease;
      for (int pos = lease.pos; pos < lease.end(); ++pos)
        ws.outstanding.insert(pos);
      try {
        ws.link->send(runtime::encode_lease_frame(
            {ws.lease_id, static_cast<std::uint32_t>(lease.study),
             static_cast<std::uint32_t>(lease.lo),
             static_cast<std::uint32_t>(lease.hi)}));
        ws.idle = false;
        ws.quiet_since = Clock::now();
        WorkerTelemetry& wt = telemetry_.workers[w];
        wt.lease_size = lease.hi - lease.lo;
        wt.busy = true;
      } catch (const std::exception& e) {
        lose_worker(static_cast<int>(w),
                    std::string("lease send failed: ") + e.what());
      }
    }
  }

  // --- teardown --------------------------------------------------------------

  void teardown() noexcept {
    if (torn_down_) return;
    torn_down_ = true;
    try {
      const std::vector<std::uint8_t> shutdown = runtime::encode_shutdown_frame();
      for (WorkerState& ws : workers_) {
        if (!ws.alive || !ws.link) continue;
        try {
          ws.link->send(shutdown);
        } catch (const std::exception&) {
        }
      }
      // Grace period for clean exits, then hard-stop the stragglers. Every
      // reader terminates with one Eof/Corrupt event; kill() guarantees a
      // blocked recv ends promptly.
      const auto deadline = Clock::now() + kShutdownGrace;
      while (readers_finished_ < readers_started_) {
        std::optional<Event> event = events_.pop_until(deadline);
        if (!event.has_value()) break;
        if (event->kind == Event::Kind::Eof ||
            event->kind == Event::Kind::Corrupt)
          ++readers_finished_;
      }
      for (WorkerState& ws : workers_)
        if (ws.link) ws.link->kill();
      while (readers_finished_ < readers_started_) {
        const Event event = events_.pop();
        if (event.kind == Event::Kind::Eof ||
            event.kind == Event::Kind::Corrupt)
          ++readers_finished_;
      }
      for (WorkerState& ws : workers_)
        if (ws.reader.joinable()) ws.reader.join();
      workers_.clear();  // link destructors reap subprocess children
    } catch (...) {
      // Teardown must never mask the in-flight exception.
    }
  }

  Transport& transport_;
  const RemoteOptions& options_;
  const std::vector<runtime::StudyParams>& studies_;
  const NextFn& next_;
  const EmitFn& emit_;
  RunnerTelemetry& telemetry_;
  /// Current lease span: options.lease_size, then adapted by autotune()
  /// between leases.
  int lease_now_;

  EventQueue events_;
  std::vector<WorkerState> workers_;
  /// The pulled plan, and whether next() has run dry.
  PulledPlan plan_;
  bool plan_done_{false};
  std::deque<Chunk> queue_;
  int pending_{0};  // positions in queue_
  std::map<int, runtime::ExperimentResult> buffer_;  // keyed by position
  std::vector<std::uint8_t> hello_with_studies_;
  std::vector<std::uint8_t> hello_inherited_;
  /// Memoizes decoded timeline headers across this run's results: most
  /// experiments share machine/state/event dictionaries, so the decode hot
  /// path pays the string allocations once per distinct header.
  runtime::ResultInterner interner_;
  std::uint32_t lease_seq_{0};
  int next_emit_{0};  // the drain cursor, a position
  int fail_pos_{kNoFailure};
  runtime::WireErrorCategory fail_category_{runtime::WireErrorCategory::Runtime};
  std::string fail_message_;
  int readers_started_{0};
  int readers_finished_{0};
  bool torn_down_{false};
};

}  // namespace

// --- RemoteRunner ------------------------------------------------------------

RemoteRunner::RemoteRunner(std::shared_ptr<Transport> transport,
                           RemoteOptions options)
    : transport_(std::move(transport)), options_(options) {
  if (!transport_) throw ConfigError("RemoteRunner: null transport");
  if (options_.lease_size < 1)
    throw ConfigError("RemoteRunner: lease_size must be >= 1, got " +
                      std::to_string(options_.lease_size));
  if (options_.hang_timeout.count() <= 0)
    throw ConfigError("RemoteRunner: hang_timeout must be positive");
}

std::string RemoteRunner::name() const {
  return "remote(" + transport_->name() + ")";
}

void RemoteRunner::run(const std::vector<runtime::StudyParams>& studies,
                        const NextFn& next, const EmitFn& emit) {
  Engine engine(*transport_, options_, studies, next, emit, telemetry_);
  engine.run();
}

// --- serve_worker ------------------------------------------------------------

void serve_worker(FrameChannel& channel,
                  const std::vector<runtime::StudyParams>* inherited_studies,
                  const ServeOptions& options) {
  std::optional<std::vector<std::uint8_t>> first = channel.read();
  if (!first.has_value()) return;  // parent vanished before the handshake
  if (runtime::worker_frame_type(*first) != WorkerFrame::Hello)
    throw std::runtime_error("serve_worker: expected Hello, got frame type " +
                             std::to_string(static_cast<int>((*first)[0])));
  runtime::HelloFrame hello = runtime::decode_hello_frame(*first);
  if (hello.protocol_version != runtime::kWorkerProtocolVersion)
    throw std::runtime_error(
        "serve_worker: parent speaks worker protocol v" +
        std::to_string(hello.protocol_version) + ", this build v" +
        std::to_string(runtime::kWorkerProtocolVersion));
  const std::vector<runtime::StudyParams>* studies =
      hello.studies.has_value() ? &*hello.studies : inherited_studies;
  if (studies == nullptr)
    throw std::runtime_error(
        "serve_worker: the Hello carried no studies and none were inherited");
  channel.write(runtime::encode_hello_ack_frame());

  // The worker's studies are fixed at Hello time, so one resettable context
  // serves every lease: a study's first experiment compiles it, all later
  // ones (across all leases) reuse the compiled tables and the world slabs,
  // and a structurally different study recompiles inside run().
  runtime::ExperimentContext context;
  // One batch buffer for the whole serve loop: results are encoded straight
  // into it (no per-result temporary), and once it has grown to the largest
  // flush it never reallocates again.
  std::vector<std::uint8_t> batch;

  // Liveness cadence: every write resets the silence clock; between
  // experiments and between batch flushes, a Heartbeat goes out whenever
  // the Hello's interval (the parent's hang_timeout / 4) has elapsed
  // without one, so a worker grinding through a slow lease is never silent
  // past the parent's hang_timeout.
  const std::chrono::milliseconds interval(hello.heartbeat_interval_ms);
  Clock::time_point last_write = Clock::now();
  const auto write = [&](const std::vector<std::uint8_t>& bytes) {
    channel.write(bytes);
    last_write = Clock::now();
  };
  // Cumulative stats for this worker process, carried by every heartbeat.
  runtime::WorkerStatsSnapshot stats;

  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame = channel.read();
    if (!frame.has_value()) return;  // parent gone: exit quietly
    switch (runtime::worker_frame_type(*frame)) {
      case WorkerFrame::Lease: {
        const runtime::LeaseFrame lease = runtime::decode_lease_frame(*frame);
        // Fail closed: never call a generator at a study or an index the
        // campaign does not declare. The parent sees EOF and requeues the
        // lease.
        if (lease.study >= studies->size())
          throw std::runtime_error(
              "serve_worker: lease names study " + std::to_string(lease.study) +
              " of a campaign with " + std::to_string(studies->size()) +
              " studies");
        const runtime::StudyParams& study = (*studies)[lease.study];
        if (lease.hi > static_cast<std::uint32_t>(study.experiments))
          throw std::runtime_error(
              "serve_worker: lease [" + std::to_string(lease.lo) + ", " +
              std::to_string(lease.hi) + ") outside study '" + study.name +
              "' of " + std::to_string(study.experiments) + " experiments");
        runtime::begin_result_batch(batch);
        for (std::uint32_t k = lease.lo; k < lease.hi; ++k) {
          const int index = static_cast<int>(k);
          bool failed = false;
          const Clock::time_point started = Clock::now();
          const std::size_t batch_before = batch.size();
          try {
            runtime::ExperimentParams params = study.make_params(index);
            validate_experiment_params(params,
                                       experiment_context(study, index));
            const runtime::ExperimentResult result = context.run(params);
            runtime::append_result_ok_entry(batch, k, result);
          } catch (const std::exception& e) {
            runtime::append_result_error_entry(
                batch, k, runtime::classify_error(e), e.what());
            failed = true;
          }
          const Clock::time_point finished = Clock::now();
          stats.bytes_encoded += batch.size() - batch_before;
          if (!failed)
            stats.record_experiment_us(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    finished - started)
                    .count()));
          if (batch.size() >= options.batch_soft_bytes || failed) {
            write(batch);
            ++stats.batches_flushed;
            runtime::begin_result_batch(batch);
          }
          if (failed) break;  // serial prefix semantics: nothing past failure
          if (finished - last_write >= interval)
            write(runtime::encode_heartbeat_frame(stats));
        }
        if (!runtime::result_batch_empty(batch)) {
          write(batch);
          ++stats.batches_flushed;
        }
        // Final heartbeat so the parent's telemetry (and the autotuner's
        // EWMA input) is current at every lease boundary.
        write(runtime::encode_heartbeat_frame(stats));
        write(runtime::encode_lease_done_frame(lease.id));
        break;
      }
      case WorkerFrame::Shutdown:
        return;
      default:
        throw std::runtime_error("serve_worker: unexpected worker-bound frame");
    }
  }
}

}  // namespace loki::campaign
