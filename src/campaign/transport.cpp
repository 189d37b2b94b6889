#include "campaign/transport.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/remote_runner.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/pipe_io.hpp"
#include "util/text_file.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

WorkerLink::~WorkerLink() = default;
Transport::~Transport() = default;
FrameChannel::~FrameChannel() = default;

std::optional<std::vector<std::uint8_t>> FdFrameChannel::read() {
  return util::read_frame(in_fd_);
}

void FdFrameChannel::write(const std::vector<std::uint8_t>& frame) {
  util::write_frame(out_fd_, frame);
}

namespace detail {

/// Every parent-side pipe fd currently open for a transport. A fork()ed
/// child closes all of them (minus its own pair, which is not registered
/// yet at fork time) so a SIGKILLed sibling's EOF is never masked by a
/// write end surviving in another child.
struct FdRegistry {
  util::Mutex mu;
  std::vector<int> fds LOKI_GUARDED_BY(mu);

  void add(int a, int b) LOKI_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    fds.push_back(a);
    fds.push_back(b);
  }
  void remove(int a, int b) LOKI_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    std::erase(fds, a);
    std::erase(fds, b);
  }
  std::vector<int> snapshot() LOKI_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    return fds;
  }
};

}  // namespace detail

namespace {

/// Writing to a worker that just died must surface as EPIPE (an exception),
/// not a process-killing SIGPIPE. Installed once, by the first pipe-backed
/// transport; a process that runs campaigns over subprocesses cannot
/// usefully keep SIGPIPE's default-terminate behaviour anyway.
void ignore_sigpipe_once() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

[[noreturn]] void throw_errno(const std::string& op) {
  throw std::runtime_error("transport: " + op + ": " + std::strerror(errno));
}

/// Parent side of one spawned worker process.
class PipeLink final : public WorkerLink {
 public:
  PipeLink(pid_t pid, int send_fd, int recv_fd, std::string describe,
           bool needs_study, std::shared_ptr<detail::FdRegistry> registry)
      : pid_(pid),
        send_fd_(send_fd),
        recv_fd_(recv_fd),
        describe_(std::move(describe)),
        needs_study_(needs_study),
        registry_(std::move(registry)) {
    registry_->add(send_fd_, recv_fd_);
  }

  ~PipeLink() override {
    kill();
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {}
    registry_->remove(send_fd_, recv_fd_);
    ::close(send_fd_);
    ::close(recv_fd_);
  }

  void send(const std::vector<std::uint8_t>& frame) override {
    util::write_frame(send_fd_, frame);
  }

  /// Blocks, even inside a frame: a worker frozen mid-write is ended by
  /// kill(), and the read then fails with DecodeError (EOF mid-frame).
  std::optional<std::vector<std::uint8_t>> recv() override {
    return util::read_frame(recv_fd_);
  }

  /// SIGKILL only — the fds stay open so a reader blocked in recv() is
  /// woken by the resulting EOF rather than racing a close() from another
  /// thread. The destructor reaps and closes.
  void kill() override { ::kill(pid_, SIGKILL); }

  std::string describe() const override { return describe_; }
  bool needs_study_bytes() const override { return needs_study_; }

 private:
  pid_t pid_;
  int send_fd_;
  int recv_fd_;
  std::string describe_;
  bool needs_study_;
  std::shared_ptr<detail::FdRegistry> registry_;
};

struct Pipes {
  int parent_send{-1}, child_recv{-1};  // parent -> child
  int child_send{-1}, parent_recv{-1};  // child -> parent
};

Pipes make_pipes() {
  int down[2], up[2];
  if (::pipe(down) != 0) throw_errno("pipe");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw_errno("pipe");
  }
  return {down[1], down[0], up[1], up[0]};
}

void close_parent_side_in_child(const Pipes& p,
                                const std::vector<int>& sibling_fds) {
  ::close(p.parent_send);
  ::close(p.parent_recv);
  for (const int fd : sibling_fds) ::close(fd);
}

/// fork() a worker wired to the parent by a fresh pipe pair. In the child,
/// every parent-side fd is closed and `body(recv_fd, send_fd)` runs; its
/// return value is the exit status, and an escaping exception (a protocol
/// violation, a dead parent pipe) exits 1. _exit, not exit: the child
/// shares the parent's stdio buffers and must not flush them a second time
/// (nor run atexit handlers).
std::unique_ptr<WorkerLink> spawn_worker(
    const std::function<int(int recv_fd, int send_fd)>& body,
    const std::string& describe, bool needs_study,
    const std::shared_ptr<detail::FdRegistry>& registry) {
  ignore_sigpipe_once();
  const Pipes p = make_pipes();
  const std::vector<int> siblings = registry->snapshot();
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(p.parent_send);
    ::close(p.parent_recv);
    ::close(p.child_send);
    ::close(p.child_recv);
    errno = err;
    throw_errno("fork");
  }
  if (pid == 0) {
    close_parent_side_in_child(p, siblings);
    int exit_code = 1;
    try {
      exit_code = body(p.child_recv, p.child_send);
    } catch (...) {
    }
    ::_exit(exit_code);
  }
  ::close(p.child_recv);
  ::close(p.child_send);
  return std::make_unique<PipeLink>(pid, p.parent_send, p.parent_recv,
                                    describe + " pid " + std::to_string(pid),
                                    needs_study, registry);
}

}  // namespace

// --- SubprocessTransport -----------------------------------------------------

SubprocessTransport::SubprocessTransport(int workers)
    : workers_(workers), registry_(std::make_shared<detail::FdRegistry>()) {
  if (workers < 1)
    throw ConfigError("SubprocessTransport: workers must be >= 1, got " +
                      std::to_string(workers));
}

std::string SubprocessTransport::name() const {
  return "subprocess:" + std::to_string(workers_);
}

std::unique_ptr<WorkerLink> SubprocessTransport::connect(
    int index, const std::vector<runtime::StudyParams>& studies) {
  // The child serves the inherited studies in-process: no exec, no wire
  // identity requirement.
  return spawn_worker(
      [&studies](int recv_fd, int send_fd) {
        FdFrameChannel channel(recv_fd, send_fd);
        serve_worker(channel, &studies);
        return 0;
      },
      "subprocess worker " + std::to_string(index), /*needs_study=*/false,
      registry_);
}

// --- SshTransport ------------------------------------------------------------

std::vector<std::string> parse_hostfile(const std::string& text,
                                        const std::string& origin) {
  std::vector<std::string> hosts;
  for (const TextLine& line : logical_lines(text)) {
    const std::string& host = line.text;
    if (host.find_first_of(" \t") != std::string::npos)
      throw ConfigError(origin + ":" + std::to_string(line.number) +
                        ": a hostfile line holds exactly one host, got '" +
                        host + "'");
    hosts.push_back(host);
  }
  if (hosts.empty())
    throw ConfigError(origin + ": hostfile lists no hosts");
  return hosts;
}

SshTransport::SshTransport(std::vector<std::string> hosts,
                           std::vector<std::string> remote_command,
                           std::string ssh_binary)
    : hosts_(std::move(hosts)),
      remote_command_(std::move(remote_command)),
      ssh_binary_(std::move(ssh_binary)),
      registry_(std::make_shared<detail::FdRegistry>()) {
  if (hosts_.empty()) throw ConfigError("SshTransport: no hosts");
  if (remote_command_.empty())
    throw ConfigError("SshTransport: empty remote command");
}

std::string SshTransport::name() const {
  return "ssh:" + std::to_string(hosts_.size());
}

std::vector<std::string> SshTransport::worker_argv(int index) const {
  std::vector<std::string> argv;
  argv.reserve(remote_command_.size() + 2);
  argv.push_back(ssh_binary_);
  argv.push_back(hosts_.at(static_cast<std::size_t>(index)));
  for (const std::string& word : remote_command_) argv.push_back(word);
  return argv;
}

std::unique_ptr<WorkerLink> SshTransport::connect(
    int index, const std::vector<runtime::StudyParams>&) {
  // The exec argv is built before fork(), so the child only dup2()s the
  // frame stream onto stdin/stdout and execs.
  const std::vector<std::string> argv = worker_argv(index);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  return spawn_worker(
      [&cargv](int recv_fd, int send_fd) {
        if (::dup2(recv_fd, STDIN_FILENO) < 0 ||
            ::dup2(send_fd, STDOUT_FILENO) < 0)
          return 127;
        ::close(recv_fd);
        ::close(send_fd);
        ::execvp(cargv[0], cargv.data());
        return 127;  // exec failed; the parent sees EOF at handshake time
      },
      "ssh worker " + hosts_.at(static_cast<std::size_t>(index)),
      /*needs_study=*/true, registry_);
}

// --- FakeTransport -----------------------------------------------------------

namespace detail {

namespace {
std::atomic<std::uint64_t> self_detaches{0};
}  // namespace

std::uint64_t fake_worker_self_detaches() { return self_detaches.load(); }

/// Shared state of one in-process fake worker: two frame queues and the
/// scripted fault plan (adopted when the link claims a victim), guarded by
/// one mutex.
struct FakeWorker {
  util::Mutex mu;
  util::CondVar cv;
  std::deque<std::vector<std::uint8_t>> to_worker LOKI_GUARDED_BY(mu);
  std::deque<std::vector<std::uint8_t>> to_parent LOKI_GUARDED_BY(mu);
  bool parent_closed LOKI_GUARDED_BY(mu){false};  // worker reads return EOF
  bool stream_eof LOKI_GUARDED_BY(mu){false};     // parent recv: nullopt
  bool hanging LOKI_GUARDED_BY(mu){false};  // parent recv delivers nothing
  bool worker_done LOKI_GUARDED_BY(mu){false};  // serve_worker returned
  int results_seen LOKI_GUARDED_BY(mu){0};  // result entries delivered so far
  int result_frames_seen LOKI_GUARDED_BY(mu){0};  // result-bearing frames
  int heartbeats_seen LOKI_GUARDED_BY(mu){0};  // heartbeat frames delivered
  FakeFaults faults LOKI_GUARDED_BY(mu);
  /// Deliberately NOT guarded_by(mu): the thread handle follows a lifecycle
  /// protocol, not a lock — written once at spawn (before any concurrent
  /// access exists) and joined/detached only via stop_and_join.
  std::thread thread;

  /// Close both directions and wait for the worker thread. Safe from any
  /// thread: the serving thread itself detaches instead of self-joining
  /// (it can end up running this when its captured shared_ptr is the last
  /// reference).
  void stop_and_join() LOKI_EXCLUDES(mu) {
    {
      util::MutexLock lock(mu);
      parent_closed = true;
      stream_eof = true;
    }
    cv.notify_all();
    if (!thread.joinable()) return;
    if (thread.get_id() == std::this_thread::get_id()) {
      // Last-resort escape hatch, never the intended path: counted so the
      // join-discipline regression test can assert it stays unused.
      ++self_detaches;
      thread.detach();
    } else {
      thread.join();
    }
  }

  ~FakeWorker() { stop_and_join(); }
};

}  // namespace detail

namespace {

using detail::FakeWorker;

/// Worker-thread side of a FakeWorker's queues — the threaded counterpart
/// of the public single-threaded QueueFrameChannel (transport.hpp).
class WorkerQueueChannel final : public FrameChannel {
 public:
  explicit WorkerQueueChannel(const std::shared_ptr<FakeWorker>& w) : w_(w) {}

  std::optional<std::vector<std::uint8_t>> read() override {
    util::MutexLock lock(w_->mu);
    while (w_->to_worker.empty() && !w_->parent_closed) w_->cv.wait(w_->mu);
    if (w_->to_worker.empty()) return std::nullopt;
    std::vector<std::uint8_t> frame = std::move(w_->to_worker.front());
    w_->to_worker.pop_front();
    return frame;
  }

  void write(const std::vector<std::uint8_t>& frame) override {
    {
      util::MutexLock lock(w_->mu);
      if (w_->parent_closed)
        throw std::runtime_error("fake transport: parent is gone (EPIPE)");
      w_->to_parent.push_back(frame);
    }
    w_->cv.notify_all();
  }

 private:
  std::shared_ptr<FakeWorker> w_;
};

class FakeLink final : public WorkerLink {
 public:
  /// `claim` runs when the first Lease goes out and returns the victim's
  /// fault script this link adopts.
  FakeLink(std::shared_ptr<FakeWorker> w, int index,
           std::function<detail::FakeFaults()> claim)
      : w_(std::move(w)), index_(index), claim_(std::move(claim)) {}

  ~FakeLink() override {
    // Closing the link closes the worker's stdin: it exits at next read.
    {
      util::MutexLock lock(w_->mu);
      w_->parent_closed = true;
    }
    w_->cv.notify_all();
  }

  void send(const std::vector<std::uint8_t>& frame) override {
    {
      util::MutexLock lock(w_->mu);
      if (w_->stream_eof)
        throw std::runtime_error("fake transport: worker " +
                                 std::to_string(index_) + " is gone (EPIPE)");
      // The fault script is in place before the worker sees its lease.
      if (claim_ && !frame.empty() &&
          frame[0] == static_cast<std::uint8_t>(runtime::WorkerFrame::Lease)) {
        w_->faults = claim_();
        claim_ = nullptr;
      }
      w_->to_worker.push_back(frame);
    }
    w_->cv.notify_all();
  }

  std::optional<std::vector<std::uint8_t>> recv() override {
    util::MutexLock lock(w_->mu);
    for (;;) {
      if (w_->stream_eof) return std::nullopt;
      const detail::FakeFaults& f = w_->faults;
      // Threshold faults fire between deliveries: after `n` results made it
      // to the parent, the stream dies (kill/eof) or goes silent (hang).
      if (!w_->hanging && f.hang_after >= 0 && w_->results_seen >= f.hang_after)
        w_->hanging = true;
      if ((f.kill_after >= 0 && w_->results_seen >= f.kill_after) ||
          (f.eof_after >= 0 && w_->results_seen >= f.eof_after)) {
        w_->stream_eof = true;
        w_->parent_closed = true;  // a dead worker's stdin is gone too
        w_->cv.notify_all();
        return std::nullopt;
      }
      if (!w_->hanging && !w_->to_parent.empty()) {
        std::vector<std::uint8_t> frame = std::move(w_->to_parent.front());
        w_->to_parent.pop_front();
        // Heartbeat scripting: a worker whose heartbeats vanish in transit
        // looks hung to the parent even though it is computing — exactly
        // the liveness-cadence regression the runner tests script.
        const bool is_heartbeat =
            !frame.empty() &&
            frame[0] ==
                static_cast<std::uint8_t>(runtime::WorkerFrame::Heartbeat);
        if (is_heartbeat) {
          const int seen = ++w_->heartbeats_seen;
          if (f.drop_heartbeats_after >= 0 && seen > f.drop_heartbeats_after)
            continue;  // vanished in transit
          return frame;
        }
        const bool is_batch =
            !frame.empty() &&
            frame[0] ==
                static_cast<std::uint8_t>(runtime::WorkerFrame::ResultBatch);
        if (!is_batch) return frame;
        // Count entries on the pristine frame (serve_worker produced it) so
        // the *_after_results thresholds keep experiment granularity even
        // when several results share one batch; the Nth-frame faults count
        // batch frames.
        const int entries =
            static_cast<int>(runtime::result_batch_entry_count(frame));
        const int nth = ++w_->result_frames_seen;
        w_->results_seen += entries;
        if (nth == f.drop_nth) continue;  // vanished in transit
        // Both corruption flavours must be rejects the decoder *guarantees*:
        // an out-of-range status byte (corrupt) and a tail cut mid-payload
        // (truncate). A flipped payload byte deeper in could decode as
        // different-but-valid data.
        if (nth == f.corrupt_nth && frame.size() > 1) frame[1] = 0xff;
        if (nth == f.truncate_nth && frame.size() > 3)
          frame.resize(frame.size() - 3);
        if (const auto delay = f.delay;
            nth == f.delay_nth && delay.count() > 0) {
          lock.unlock();
          std::this_thread::sleep_for(delay);
          lock.lock();
        }
        return frame;
      }
      if (w_->worker_done && w_->to_parent.empty() && !w_->hanging)
        return std::nullopt;
      w_->cv.wait(w_->mu);
    }
  }

  void kill() override {
    {
      util::MutexLock lock(w_->mu);
      w_->stream_eof = true;
      w_->parent_closed = true;
    }
    w_->cv.notify_all();
  }

  std::string describe() const override {
    return "fake worker " + std::to_string(index_);
  }

 private:
  std::shared_ptr<FakeWorker> w_;
  int index_;
  std::function<detail::FakeFaults()> claim_;  // engine thread only
};

}  // namespace

FakeTransport::FakeTransport(int workers)
    : workers_(workers),
      scripts_(static_cast<std::size_t>(workers)),
      live_(static_cast<std::size_t>(workers)) {
  if (workers < 1)
    throw ConfigError("FakeTransport: workers must be >= 1, got " +
                      std::to_string(workers));
}

FakeTransport::~FakeTransport() {
  // Join every worker thread from here (the owning thread) so destruction
  // order can never leave a thread to destroy its own FakeWorker.
  for (auto& worker : live_)
    if (worker) worker->stop_and_join();
}

std::string FakeTransport::name() const {
  return "fake:" + std::to_string(workers_);
}

std::unique_ptr<WorkerLink> FakeTransport::connect(
    int index, const std::vector<runtime::StudyParams>&) {
  if (index < 0 || index >= workers_)
    throw ConfigError("FakeTransport: worker index " + std::to_string(index) +
                      " out of range");
  if (auto& old = live_[static_cast<std::size_t>(index)]; old)
    old->stop_and_join();  // the slot's worker from an earlier connect
  auto worker = std::make_shared<FakeWorker>();
  const ServeOptions serve_options{batch_soft_bytes_};
  worker->thread = std::thread([worker, serve_options] {
    WorkerQueueChannel channel(worker);
    try {
      serve_worker(channel, nullptr, serve_options);
    } catch (...) {
      // Killed mid-write or a protocol violation; the parent sees EOF.
    }
    {
      util::MutexLock lock(worker->mu);
      worker->worker_done = true;
    }
    worker->cv.notify_all();
  });
  live_[static_cast<std::size_t>(index)] = worker;
  return std::make_unique<FakeLink>(worker, index, [this, index] {
    const std::size_t victim = victim_slots_.size();
    victim_slots_.push_back(index);
    return victim < scripts_.size() ? scripts_[victim] : detail::FakeFaults{};
  });
}

int FakeTransport::victim_slot(int victim) const {
  return victim >= 0 && static_cast<std::size_t>(victim) < victim_slots_.size()
             ? victim_slots_[static_cast<std::size_t>(victim)]
             : -1;
}

detail::FakeFaults& FakeTransport::script(int victim) {
  if (victim < 0 || victim >= workers_)
    throw ConfigError("FakeTransport: victim " + std::to_string(victim) +
                      " out of range");
  return scripts_[static_cast<std::size_t>(victim)];
}

void FakeTransport::kill_after_results(int victim, int n) {
  script(victim).kill_after = n;
}
void FakeTransport::eof_after_results(int victim, int n) {
  script(victim).eof_after = n;
}
void FakeTransport::hang_after_results(int victim, int n) {
  script(victim).hang_after = n;
}
void FakeTransport::corrupt_batch(int victim, int nth) {
  script(victim).corrupt_nth = nth;
}
void FakeTransport::truncate_batch(int victim, int nth) {
  script(victim).truncate_nth = nth;
}
void FakeTransport::drop_batch(int victim, int nth) {
  script(victim).drop_nth = nth;
}
void FakeTransport::delay_batch(int victim, int nth,
                                std::chrono::milliseconds by) {
  detail::FakeFaults& f = script(victim);
  f.delay_nth = nth;
  f.delay = by;
}
void FakeTransport::drop_heartbeats_after(int victim, int n) {
  script(victim).drop_heartbeats_after = n;
}

}  // namespace loki::campaign
