// Runner fault injection: RemoteRunner must survive workers that are
// SIGKILLed, hang, close their stream, corrupt frames, or drop results
// mid-campaign — completing the campaign with results and a sink event
// sequence byte-identical to SerialRunner, every experiment emitted exactly
// once, and the recovery visible in Campaign::Summary (requeue_events /
// requeued_indices / workers_lost). FakeTransport faults are scripted per
// victim (the k-th link to be leased), so every scripted fault lands on a
// link that has work. Also covers the liveness cadence: heartbeats flow
// *during* a lease, so a slow-but-healthy worker is never mistaken for a
// hung one, while a worker whose heartbeats stop (and whose batches never
// flush), or that freezes halfway through writing a frame, is still killed
// within hang_timeout — judged on the coordinator's clock alone, since
// links have no timeout. Also covers the `remote:`/`procs:` runner specs,
// hostfile parsing, SshTransport argv construction (plus an end-to-end run
// through a local ssh shim), and the `lokimeasure` CLI's rejection of the
// retired worker range mode, of malformed numeric flags and of flags whose
// parent flag is missing.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "runtime/serialize.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/pipe_io.hpp"
#include "util/text_file.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

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
                                 std::uint64_t base_seed = 21'000) {
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

/// A study whose per-experiment wall time is as large as the simulator
/// allows (a long horizon plus a crash/restart loop keeps the event queue
/// busy), for tests that need a *lease* to outlast a short hang_timeout.
runtime::StudyParams slow_study(const std::string& name, int experiments,
                                std::uint64_t base_seed = 47'000) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [base_seed](int k) {
    apps::ElectionParams app;
    app.run_for = milliseconds(30'000);
    app.fault_activation_prob = 0.85;
    auto p = apps::election_experiment(
        base_seed + static_cast<std::uint64_t>(k), kHosts, kPlacement, app);
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

struct CampaignRun {
  std::vector<Event> events;
  Campaign::Summary summary;
};

/// Run `studies` through `runner` via the full Campaign, recording the exact
/// sink event sequence (results as encoded bytes) and the summary.
CampaignRun run_recorded(
    std::shared_ptr<campaign::Runner> runner,
    const std::vector<runtime::StudyParams>& studies,
    std::shared_ptr<campaign::ResultCache> cache = nullptr) {
  CampaignRun run;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->campaign_begin([&](int n) {
    run.events.push_back({"campaign_begin", std::to_string(n), -1, {}});
  });
  sink->study_begin([&](const campaign::StudyInfo& info) {
    run.events.push_back({"study_begin", info.name, -1, {}});
  });
  sink->experiment([&](const campaign::StudyInfo& info, int index,
                       const ExperimentResult& result) {
    run.events.push_back({"experiment", info.name, index,
                          runtime::encode_experiment_result(result)});
  });
  sink->study_done([&](const campaign::StudyInfo& info) {
    run.events.push_back({"study_done", info.name, -1, {}});
  });
  sink->campaign_done(
      [&] { run.events.push_back({"campaign_done", "", -1, {}}); });

  CampaignBuilder builder;
  for (const runtime::StudyParams& study : studies) builder.add(study);
  builder.runner(std::move(runner)).sink(sink);
  if (cache) builder.cache(std::move(cache));
  run.summary = builder.build().run();
  return run;
}

CampaignRun run_recorded(std::shared_ptr<campaign::Runner> runner,
                         const runtime::StudyParams& study) {
  return run_recorded(std::move(runner),
                      std::vector<runtime::StudyParams>{study});
}

void expect_identical_events(const std::vector<Event>& expected,
                             const std::vector<Event>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(expected[i], actual[i]) << "event " << i;
}

/// Every index emitted exactly once, in order.
void expect_exactly_once(const std::vector<Event>& events, int experiments) {
  std::map<int, int> seen;
  for (const Event& e : events)
    if (e.kind == "experiment") ++seen[e.index];
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(experiments));
  for (const auto& [index, count] : seen)
    EXPECT_EQ(count, 1) << "experiment " << index;
}

/// Drive `runner` directly over one whole study (no Campaign), recording
/// every emitted index.
void run_direct(campaign::Runner& runner, const runtime::StudyParams& study,
                std::vector<int>& emitted) {
  const std::vector<runtime::StudyParams> studies{study};
  bool pulled = false;
  runner.run(
      studies,
      [&]() -> std::optional<campaign::StudyPlan> {
        if (pulled) return std::nullopt;
        pulled = true;
        return campaign::StudyPlan{0, {{0, study.experiments}}};
      },
      [&](int, int k, ExperimentResult&&) { emitted.push_back(k); });
}

std::string temp_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "loki-remote-" + tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Options tuned for tests: tiny leases (more scheduling edges) and a hang
/// timeout far above one experiment's runtime but small enough to keep
/// hang-detection tests quick.
campaign::RemoteOptions test_options(int lease_size = 2) {
  campaign::RemoteOptions options;
  options.lease_size = lease_size;
  options.hang_timeout = std::chrono::milliseconds(5'000);
  return options;
}

/// Forwards every WorkerLink call to `inner_`; the fault tests below
/// override the calls they sabotage.
class ForwardingLink : public campaign::WorkerLink {
 public:
  explicit ForwardingLink(std::unique_ptr<campaign::WorkerLink> inner)
      : inner_(std::move(inner)) {}
  void send(const std::vector<std::uint8_t>& frame) override {
    inner_->send(frame);
  }
  std::optional<std::vector<std::uint8_t>> recv() override {
    return inner_->recv();
  }
  void kill() override { inner_->kill(); }
  std::string describe() const override { return inner_->describe(); }
  bool needs_study_bytes() const override {
    return inner_->needs_study_bytes();
  }

 protected:
  std::unique_ptr<campaign::WorkerLink> inner_;
};

/// A transport whose links are passed through `wrap` as they connect.
class WrappingTransport final : public campaign::Transport {
 public:
  using Wrap = std::function<std::unique_ptr<campaign::WorkerLink>(
      std::unique_ptr<campaign::WorkerLink>)>;
  WrappingTransport(std::shared_ptr<campaign::Transport> inner, Wrap wrap)
      : inner_(std::move(inner)), wrap_(std::move(wrap)) {}
  std::string name() const override {
    return "wrapped(" + inner_->name() + ")";
  }
  int worker_count() const override { return inner_->worker_count(); }
  std::unique_ptr<campaign::WorkerLink> connect(
      int index, const std::vector<runtime::StudyParams>& studies) override {
    return wrap_(inner_->connect(index, studies));
  }

 private:
  std::shared_ptr<campaign::Transport> inner_;
  Wrap wrap_;
};

bool is_frame_of(const std::vector<std::uint8_t>& frame,
                 runtime::WorkerFrame type) {
  return !frame.empty() && frame[0] == static_cast<std::uint8_t>(type);
}

/// Worker side of FreezingTransport: frames over fds, except that a
/// freezing worker writes the length header and half of its first
/// ResultBatch, then stops for good without closing its stream.
class FreezingChannel final : public campaign::FrameChannel {
 public:
  FreezingChannel(int in_fd, int out_fd, bool freeze)
      : fds_(in_fd, out_fd), out_fd_(out_fd), freeze_(freeze) {}
  std::optional<std::vector<std::uint8_t>> read() override {
    return fds_.read();
  }
  void write(const std::vector<std::uint8_t>& frame) override {
    if (freeze_ && is_frame_of(frame, runtime::WorkerFrame::ResultBatch)) {
      std::uint8_t header[4];
      for (int i = 0; i < 4; ++i)
        header[i] = static_cast<std::uint8_t>(frame.size() >> (8 * i));
      util::write_exact(out_fd_, header, sizeof header);
      util::write_exact(out_fd_, frame.data(), frame.size() / 2);
      for (;;) ::pause();  // only SIGKILL ends this worker
    }
    fds_.write(frame);
  }

 private:
  campaign::FdFrameChannel fds_;
  int out_fd_;
  bool freeze_;
};

/// Parent side of one FreezingTransport worker: frames over pipes, and a
/// kill() that is SIGKILL; the destructor reaps.
class ForkedLink final : public campaign::WorkerLink {
 public:
  ForkedLink(pid_t pid, int send_fd, int recv_fd)
      : pid_(pid), send_fd_(send_fd), recv_fd_(recv_fd) {}
  ForkedLink(const ForkedLink&) = delete;
  ForkedLink& operator=(const ForkedLink&) = delete;
  ~ForkedLink() override {
    kill();
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {}
    ::close(send_fd_);
    ::close(recv_fd_);
  }
  void send(const std::vector<std::uint8_t>& frame) override {
    util::write_frame(send_fd_, frame);
  }
  std::optional<std::vector<std::uint8_t>> recv() override {
    return util::read_frame(recv_fd_);
  }
  void kill() override { ::kill(pid_, SIGKILL); }
  std::string describe() const override {
    return "forked worker pid " + std::to_string(pid_);
  }
  bool needs_study_bytes() const override { return false; }

 private:
  pid_t pid_;
  int send_fd_;
  int recv_fd_;
};

/// fork()s real workers serving the inherited studies over
/// FreezingChannels; worker 0's channel freezes mid-frame.
class FreezingTransport final : public campaign::Transport {
 public:
  explicit FreezingTransport(int workers) : workers_(workers) {
    std::signal(SIGPIPE, SIG_IGN);  // a dead worker's pipe fails with EPIPE
  }
  std::string name() const override {
    return "freezing:" + std::to_string(workers_);
  }
  int worker_count() const override { return workers_; }
  std::unique_ptr<campaign::WorkerLink> connect(
      int index, const std::vector<runtime::StudyParams>& studies) override {
    int down[2];
    int up[2];
    if (::pipe(down) != 0) throw std::runtime_error("pipe");
    if (::pipe(up) != 0) {
      ::close(down[0]);
      ::close(down[1]);
      throw std::runtime_error("pipe");
    }
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork");
    if (pid == 0) {
      ::close(down[1]);
      ::close(up[0]);
      try {
        FreezingChannel channel(down[0], up[1], /*freeze=*/index == 0);
        campaign::serve_worker(channel, &studies);
      } catch (...) {
      }
      ::_exit(0);
    }
    ::close(down[0]);
    ::close(up[1]);
    return std::make_unique<ForkedLink>(pid, down[1], up[0]);
  }

 private:
  int workers_;
};

// --- byte-identity with SerialRunner ----------------------------------------

TEST(RemoteRunner, FakeTransportIdenticalToSerial) {
  const auto study = fault_study("fake-identity", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::FakeTransport>(3);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(remote.summary.requeue_events, 0);
  EXPECT_EQ(remote.summary.requeued_indices, 0);
  EXPECT_EQ(remote.summary.workers_lost, 0);
}

// The acceptance check: a SubprocessTransport campaign over >= 2 real
// worker processes is byte-identical to SerialRunner, sink order included.
TEST(RemoteRunner, SubprocessIdenticalToSerial) {
  const auto study = fault_study("subprocess-identity", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(
          std::make_shared<campaign::SubprocessTransport>(2), test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
}

TEST(RemoteRunner, SingleIndexLeasesIdenticalToSerial) {
  const auto study = fault_study("lease1-identity", 7);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(
          std::make_shared<campaign::FakeTransport>(2), test_options(1)),
      study);
  expect_identical_events(serial.events, remote.events);
}

TEST(RemoteRunner, MoreWorkersThanLeases) {
  const auto study = fault_study("overprovisioned", 2);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(
          std::make_shared<campaign::FakeTransport>(8), test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
}

// One fleet per Campaign::run: the workers are connected and handshaken
// once, and every study is leased to the same links.
TEST(RemoteRunner, ManyStudiesShareOneFleet) {
  std::vector<runtime::StudyParams> studies;
  for (int s = 0; s < 5; ++s)
    studies.push_back(
        fault_study("fleet-" + std::to_string(s), 3 + s,
                    31'000 + 1'000 * static_cast<std::uint64_t>(s)));
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), studies);

  auto connects = std::make_shared<int>(0);  // connect() runs on this thread
  auto transport = std::make_shared<WrappingTransport>(
      std::make_shared<campaign::FakeTransport>(2),
      [connects](std::unique_ptr<campaign::WorkerLink> link) {
        ++*connects;
        return link;
      });
  auto runner =
      std::make_shared<campaign::RemoteRunner>(transport, test_options());
  const auto remote = run_recorded(runner, studies);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(*connects, 2);

  // A second Campaign::run on the same runner connects its own fleet, once.
  const auto again = run_recorded(runner, studies);
  expect_identical_events(serial.events, again.events);
  EXPECT_EQ(*connects, 4);
}

// Cache-first over one procs:2 fleet: the runner sees only the misses, as
// sorted runs in original coordinates — none for a fully cached study, a
// fragmented plan for a half-cached one — and the delivery still matches
// an uncached serial run event for event.
TEST(RemoteRunner, CacheFirstPlanAcrossStudiesIdenticalToSerial) {
  const std::vector<runtime::StudyParams> studies = {
      fault_study("plan-cold", 5, 71'000),
      fault_study("plan-cold-2", 4, 72'000),
      fault_study("plan-warm", 5, 73'000),
      fault_study("plan-half", 8, 74'000)};
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), studies);

  const std::string dir = temp_dir("plan-cache");
  int cached = 0;
  {
    campaign::ResultCache warm(dir);
    const auto store = [&](const runtime::StudyParams& study, int k) {
      const ExperimentParams params = study.make_params(k);
      warm.store(runtime::experiment_cache_key(params),
                 runtime::run_experiment(params));
      ++cached;
    };
    for (int k = 0; k < studies[2].experiments; ++k) store(studies[2], k);
    for (int k = 0; k < studies[3].experiments; k += 2) store(studies[3], k);
  }
  auto cache = std::make_shared<campaign::ResultCache>(dir);
  const auto remote = run_recorded(campaign::parse_runner_spec("procs:2"),
                                   studies, cache);
  expect_identical_events(serial.events, remote.events);
  const int total = 5 + 4 + 5 + 8;
  EXPECT_EQ(remote.summary.cache_hits, cached);
  EXPECT_EQ(cache->stats().hits, static_cast<std::uint64_t>(cached));
  EXPECT_EQ(cache->stats().stores, static_cast<std::uint64_t>(total - cached));
}

// --- fault injection: the runner under its own medicine ----------------------

TEST(RemoteRunnerFaults, FakeWorkerKilledMidCampaign) {
  const auto study = fault_study("fake-kill", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  // 3-index leases, killed after 2 results: the fault always lands
  // mid-lease, so at least one index is left outstanding to requeue.
  transport->kill_after_results(0, 2);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3)),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.requeue_events, 1);
  // Each event salvages at least one index; the kill lands mid-lease, so
  // the event/index split is visible (indices >= events).
  EXPECT_GE(remote.summary.requeued_indices, remote.summary.requeue_events);
  EXPECT_GE(remote.summary.workers_lost, 1);
}

TEST(RemoteRunnerFaults, SubprocessWorkerSigkilledMidCampaign) {
  // SIGKILL the real process behind the first link that delivers a
  // ResultBatch — whichever worker that is — and swallow that frame, as if
  // the worker died mid-send. With batching a whole lease can share one
  // frame, so delivering it first would leave nothing outstanding to
  // requeue.
  class ChaosLink final : public ForwardingLink {
   public:
    ChaosLink(std::unique_ptr<campaign::WorkerLink> inner,
              std::shared_ptr<std::atomic<bool>> fired)
        : ForwardingLink(std::move(inner)), fired_(std::move(fired)) {}
    std::optional<std::vector<std::uint8_t>> recv() override {
      std::optional<std::vector<std::uint8_t>> frame = inner_->recv();
      if (frame.has_value() &&
          is_frame_of(*frame, runtime::WorkerFrame::ResultBatch) &&
          !fired_->exchange(true)) {
        inner_->kill();
        frame = inner_->recv();  // the killed worker's frame is lost
      }
      return frame;
    }

   private:
    std::shared_ptr<std::atomic<bool>> fired_;
  };

  const auto study = fault_study("subprocess-kill", 10);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto fired = std::make_shared<std::atomic<bool>>(false);
  auto transport = std::make_shared<WrappingTransport>(
      std::make_shared<campaign::SubprocessTransport>(2),
      [fired](std::unique_ptr<campaign::WorkerLink> link)
          -> std::unique_ptr<campaign::WorkerLink> {
        return std::make_unique<ChaosLink>(std::move(link), fired);
      });
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  EXPECT_TRUE(fired->load());
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.requeue_events, 1);
  EXPECT_GE(remote.summary.workers_lost, 1);
}

TEST(RemoteRunnerFaults, HungWorkerIsTimedOutAndRequeued) {
  const auto study = fault_study("fake-hang", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  // Three workers: even if CPU starvation on a loaded machine makes a
  // *healthy* worker cross the hang threshold too (a spurious but
  // legitimate kill+requeue), a survivor remains and the campaign still
  // completes identically. The timeout itself stays well above any
  // plausible single-experiment latency.
  auto transport = std::make_shared<campaign::FakeTransport>(3);
  transport->hang_after_results(0, 1);  // goes silent, no EOF
  campaign::RemoteOptions options = test_options();
  options.hang_timeout = std::chrono::milliseconds(2'000);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, options), study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.requeue_events, 1);
  EXPECT_GE(remote.summary.workers_lost, 1);
}

// A worker frozen halfway through writing a frame leaves its reader blocked
// inside the frame: links have no timeout, so only the engine's clock can
// judge it. Worker 0 of this forked fleet writes the length header and half
// of its first ResultBatch, then pause()s; hang_timeout after its lease was
// sent, the engine kills it, which ends the blocked read, and worker 1 runs
// the requeued lease.
TEST(RemoteRunnerFaults, WorkerFrozenMidFrameIsJudgedByTheEngine) {
  const auto study = fault_study("frozen-mid-frame", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  campaign::RemoteOptions options = test_options();
  options.hang_timeout = std::chrono::milliseconds(1'500);
  const auto remote =
      run_recorded(std::make_shared<campaign::RemoteRunner>(
                       std::make_shared<FreezingTransport>(2), options),
                   study);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(remote.summary.workers_lost, 1);
  EXPECT_GE(remote.summary.requeued_indices, 1);
}

// A finished campaign does not wait for a worker that never acknowledged
// its Hello: that worker holds no lease, so nothing of the campaign is
// owed by it (one slow ssh host must not cost a finished run the whole
// hang_timeout and be reported lost). Slot 1's link withholds every frame;
// slot 0 runs the study alone.
TEST(RemoteRunnerFaults, UnackedWorkerDoesNotHoldAFinishedCampaign) {
  class MuteLink final : public ForwardingLink {
   public:
    using ForwardingLink::ForwardingLink;
    std::optional<std::vector<std::uint8_t>> recv() override {
      while (inner_->recv().has_value()) {
      }
      return std::nullopt;  // the stream ended: kill() or the worker's exit
    }
  };

  const auto study = fault_study("unacked", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<WrappingTransport>(
      std::make_shared<campaign::FakeTransport>(2),
      [](std::unique_ptr<campaign::WorkerLink> link)
          -> std::unique_ptr<campaign::WorkerLink> {
        if (link->describe() == "fake worker 1")
          return std::make_unique<MuteLink>(std::move(link));
        return link;
      });
  const campaign::RemoteOptions options = test_options();  // 5 s
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, options), study);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(remote.summary.workers_lost, 0);
  EXPECT_LT(remote.summary.wall_seconds,
            std::chrono::duration<double>(options.hang_timeout).count());
}

TEST(RemoteRunnerFaults, WedgeBetweenLastResultAndLeaseDoneIsStillHung) {
  // The nastiest hang: the worker delivers every Result of its lease, then
  // freezes before LeaseDone. Nothing is outstanding to requeue, but the
  // worker is not idle either — it must still be declared hung and killed,
  // or it would silently shrink the fleet (and hang a 1-worker campaign).
  const auto study = fault_study("fake-wedge", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto transport = std::make_shared<campaign::FakeTransport>(1);
  // lease_size 2 => victim 0's first lease is exactly 2 indices; hanging
  // after 2 results withholds precisely the LeaseDone frame.
  transport->hang_after_results(0, 2);
  campaign::RemoteOptions options = test_options();
  options.hang_timeout = std::chrono::milliseconds(1'000);
  auto runner = std::make_shared<campaign::RemoteRunner>(transport, options);

  // A single worker that is lost cannot finish the study — the campaign
  // must fail loudly (all workers lost), not hang. With >1 workers the
  // same detection instead keeps the fleet at full strength.
  std::vector<int> emitted;
  EXPECT_THROW(run_direct(*runner, study, emitted), std::runtime_error);
  EXPECT_EQ(emitted, (std::vector<int>{0, 1}));
  EXPECT_EQ(runner->telemetry().workers_lost, 1);

  // With survivors, the same wedge is harmless: the rest of the fleet
  // finishes first (the wedged worker's results all arrived, so nothing
  // needs requeueing) and teardown reaps it — identity intact either way.
  auto transport2 = std::make_shared<campaign::FakeTransport>(3);
  transport2->hang_after_results(0, 2);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport2, options), study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
}

TEST(RemoteRunnerFaults, StreamEofMidLeaseIsRequeued) {
  const auto study = fault_study("fake-eof", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->eof_after_results(0, 1);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.requeue_events, 1);
}

TEST(RemoteRunnerFaults, CorruptResultFrameKillsWorkerNotCampaign) {
  const auto study = fault_study("fake-corrupt", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->corrupt_batch(0, 1);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.workers_lost, 1);
}

TEST(RemoteRunnerFaults, DroppedResultIsRequeuedWithoutLosingTheWorker) {
  const auto study = fault_study("fake-drop", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->drop_batch(0, 2);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.requeue_events, 1);
  EXPECT_EQ(remote.summary.workers_lost, 0);
}

TEST(RemoteRunnerFaults, DelayedResultIsJustSlow) {
  const auto study = fault_study("fake-delay", 6);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->delay_batch(0, 1, std::chrono::milliseconds(50));
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(remote.summary.requeue_events, 0);
  EXPECT_EQ(remote.summary.workers_lost, 0);
}

// One fleet serves every study, so a worker lost in study 1 stays lost for
// studies 1 and 2: the survivors finish the campaign. The first link to be
// sent a lease of study 1 dies the moment that lease is sent.
TEST(RemoteRunnerFaults, WorkerLostInOneStudyStaysLostForTheRest) {
  class StudyOneKillLink final : public ForwardingLink {
   public:
    StudyOneKillLink(std::unique_ptr<campaign::WorkerLink> inner,
                     std::shared_ptr<bool> fired)
        : ForwardingLink(std::move(inner)), fired_(std::move(fired)) {}
    void send(const std::vector<std::uint8_t>& frame) override {
      inner_->send(frame);
      // send() runs on the engine thread only, so the flag needs no lock.
      if (is_frame_of(frame, runtime::WorkerFrame::Lease) && !*fired_ &&
          runtime::decode_lease_frame(frame).study == 1) {
        *fired_ = true;
        inner_->kill();
      }
    }

   private:
    std::shared_ptr<bool> fired_;
  };

  const std::vector<runtime::StudyParams> studies = {
      fault_study("lost-0", 6, 81'000), fault_study("lost-1", 6, 82'000),
      fault_study("lost-2", 6, 83'000)};
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), studies);

  auto fired = std::make_shared<bool>(false);
  auto transport = std::make_shared<WrappingTransport>(
      std::make_shared<campaign::FakeTransport>(3),
      [fired](std::unique_ptr<campaign::WorkerLink> link)
          -> std::unique_ptr<campaign::WorkerLink> {
        return std::make_unique<StudyOneKillLink>(std::move(link), fired);
      });
  auto runner =
      std::make_shared<campaign::RemoteRunner>(transport, test_options());
  const auto remote = run_recorded(runner, studies);
  EXPECT_TRUE(*fired);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(remote.summary.workers_lost, 1);
  EXPECT_GE(remote.summary.requeued_indices, 1);
  // The fleet is the run's: three slots, one of them lost to the end.
  const campaign::FleetTelemetry fleet = runner->telemetry();
  ASSERT_EQ(fleet.workers.size(), 3u);
  int lost = 0;
  for (const campaign::WorkerTelemetry& w : fleet.workers)
    lost += w.lost ? 1 : 0;
  EXPECT_EQ(lost, 1);
}

// --- liveness cadence --------------------------------------------------------
// The regression at the heart of this protocol revision: serve_worker used
// to write nothing between a lease's start and its first batch flush, so a
// slow-but-healthy worker grinding through a long lease went silent past
// hang_timeout and was killed. Heartbeats now flow on a wall-clock cadence
// *inside* the lease. Both tests build the silent-lease geometry directly:
// one lease spans many experiments and the batch bound is large enough
// that no ResultBatch flushes early — without heartbeats the coordinator
// would hear nothing for the whole lease. hang_timeout is calibrated from
// the measured serial wall time, so the lease provably outlasts it; the
// coordinator asks for a heartbeat every hang_timeout / 4. A first span
// larger than the autotuner's cap is used as given, and the taper then cuts
// each lease to at most ceil(pending / (2 * live workers)), so the first
// lease spans half the study for one worker and a quarter for two.

TEST(RemoteRunnerLiveness, SlowLeaseHealthyWorkerOutlivesHangTimeout) {
  const auto study = slow_study("slow-healthy", 320);
  const auto serial_t0 = std::chrono::steady_clock::now();
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  const auto serial_wall =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - serial_t0);

  // A single worker: if the coordinator ever mistakes it for hung, the
  // campaign dies with "all workers lost" — this test fails loudly rather
  // than quietly recovering through a survivor.
  auto transport = std::make_shared<campaign::FakeTransport>(1);
  transport->set_batch_soft_bytes(8u << 20);  // one flush, at lease end
  campaign::RemoteOptions options;
  options.lease_size = study.experiments;  // tapered to half the study
  // The first lease's wall time is about half the serial run (same
  // machine, same experiments), so a timeout of a quarter of that run is
  // comfortably inside it, and the heartbeat interval sits well below the
  // timeout. The
  // floor keeps scheduler noise from starving a genuinely healthy beat.
  options.hang_timeout = std::max(std::chrono::milliseconds(150),
                                  std::chrono::milliseconds(serial_wall / 4));
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, options), study);
  expect_identical_events(serial.events, remote.events);
  EXPECT_EQ(remote.summary.workers_lost, 0);
  EXPECT_EQ(remote.summary.requeue_events, 0);
  EXPECT_EQ(remote.summary.requeued_indices, 0);
}

TEST(RemoteRunnerLiveness, HeartbeatStarvedWorkerIsStillKilledWithinTimeout) {
  // The dual guarantee: the cadence must not *hide* genuinely hung
  // workers. Victim 0 computes happily but its heartbeats all vanish in
  // transit, and its batch never flushes early — from the coordinator's
  // chair it is indistinguishable from a wedge, and must be killed within
  // hang_timeout and its whole lease requeued to the survivor.
  //
  // The kill must land inside victim 0's first lease, so that lease has to
  // outlast hang_timeout on any host. hang_timeout has a 150 ms floor (see
  // below), so on a host that runs 320 experiments in under 8 x 150 ms a
  // quarter of the study would finish before the floor expired: size the
  // study from a timed 320-experiment run instead, so its serial wall is
  // at least 8 x 150 ms.
  constexpr std::chrono::milliseconds kTimeoutFloor{150};
  const auto timed_serial = [](const runtime::StudyParams& s,
                               std::chrono::milliseconds& wall) {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignRun run =
        run_recorded(std::make_shared<campaign::SerialRunner>(), s);
    wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    return run;
  };
  runtime::StudyParams study = slow_study("heartbeat-starved", 320);
  std::chrono::milliseconds serial_wall{0};
  CampaignRun serial = timed_serial(study, serial_wall);
  if (serial_wall < 8 * kTimeoutFloor) {
    const auto scaled = 320 * (8 * kTimeoutFloor) / std::max(
        serial_wall, std::chrono::milliseconds(1));
    study = slow_study("heartbeat-starved", static_cast<int>(scaled) + 1);
    serial = timed_serial(study, serial_wall);
  }

  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->set_batch_soft_bytes(8u << 20);
  transport->drop_heartbeats_after(0, 0);  // no heartbeat ever arrives
  campaign::RemoteOptions options;
  options.lease_size = study.experiments / 2;  // tapered to a quarter
  // The silent worker (victim 0, the first leased link) gets a quarter of
  // the study, about a quarter of the serial wall; an eighth of the serial
  // wall kills it halfway through that lease while the healthy one beats
  // every hang_timeout / 4. The floor keeps scheduler noise from starving
  // the healthy worker's beat.
  options.hang_timeout =
      std::max(kTimeoutFloor, std::chrono::milliseconds(serial_wall / 8));
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, options), study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.workers_lost, 1);
  EXPECT_GE(remote.summary.requeue_events, 1);
  EXPECT_GE(remote.summary.requeued_indices, 1);
}

// --- multi-result batch faults ----------------------------------------------
// With a large soft bound every lease travels as ONE ResultBatch frame, so
// these scripts damage several results at once. All-or-nothing decoding must
// requeue the whole batch — byte-identity and exactly-once still hold.

TEST(RemoteRunnerBatchFaults, MultiResultBatchesIdenticalToSerial) {
  const auto study = fault_study("batch-identity", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->set_batch_soft_bytes(8u << 20);  // a whole lease per frame
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3)),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_EQ(remote.summary.requeue_events, 0);
  EXPECT_EQ(remote.summary.workers_lost, 0);
}

TEST(RemoteRunnerBatchFaults, CorruptBatchRequeuesWholeBatch) {
  const auto study = fault_study("batch-corrupt", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->set_batch_soft_bytes(8u << 20);
  transport->corrupt_batch(0, 1);  // first batch: 3 results, all damaged
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3)),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.workers_lost, 1);
  EXPECT_GE(remote.summary.requeue_events, 1) << "the damaged lease was requeued";
}

TEST(RemoteRunnerBatchFaults, TruncatedBatchRequeuesWholeBatch) {
  const auto study = fault_study("batch-truncate", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->set_batch_soft_bytes(8u << 20);
  transport->truncate_batch(0, 1);  // tail cut mid-entry
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3)),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.workers_lost, 1);
  EXPECT_GE(remote.summary.requeue_events, 1);
}

TEST(RemoteRunnerBatchFaults, DroppedBatchIsRequeuedWithoutLosingTheWorker) {
  const auto study = fault_study("batch-drop", 9);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->set_batch_soft_bytes(8u << 20);
  // Victim 0's FIRST lease batch vanishes (its heartbeats and LeaseDone
  // still arrive) — deterministic, unlike a later batch, which depends on
  // the lease-scheduling race between the two workers.
  transport->drop_batch(0, 1);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options(3)),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.requeue_events, 1);
  // One drop of a whole-lease batch loses several indices in one event.
  EXPECT_GE(remote.summary.requeued_indices, 2);
  EXPECT_EQ(remote.summary.workers_lost, 0);
}

TEST(RemoteRunnerBatchFaults, TruncatedSingleResultBatchStaysIdentical) {
  // The per-result shape (soft bound 1) under the new truncate fault: one
  // entry per frame, tail cut — same whole-batch requeue contract.
  const auto study = fault_study("batch-truncate-1", 8);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->truncate_batch(0, 1);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.workers_lost, 1);
}

TEST(RemoteRunnerFaults, AllWorkersLostThrows) {
  const auto study = fault_study("fake-apocalypse", 8);
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->kill_after_results(0, 1);
  transport->kill_after_results(1, 1);

  std::vector<int> emitted;
  campaign::RemoteRunner runner(transport, test_options());
  try {
    run_direct(runner, study, emitted);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("all 2 workers lost"),
              std::string::npos)
        << e.what();
  }
  // Whatever prefix was emitted arrived in order, each index at most once.
  for (std::size_t i = 0; i < emitted.size(); ++i)
    EXPECT_EQ(emitted[i], static_cast<int>(i));
  EXPECT_EQ(runner.telemetry().workers_lost, 2);
}

// A poison experiment: every real forked worker that runs index 3 dies on
// it. Each slot holds one link for the whole run, so the first death
// requeues index 3 to the survivor, the survivor dies on it too, and the
// study fails with "all workers lost" — at once, not after hang_timeout,
// and never by respawning workers that die on the same index forever.
TEST(RemoteRunnerFaults, DeterministicWorkerCrashFailsFast) {
  runtime::StudyParams study = fault_study("poison", 8, 43'000);
  auto inner = study.make_params;
  study.make_params = [inner](int k) {
    if (k == 3) ::_exit(3);  // forked workers only: the parent never generates
    return inner(k);
  };
  campaign::RemoteOptions options = test_options(1);
  options.hang_timeout = std::chrono::milliseconds(30'000);
  campaign::RemoteRunner runner(
      std::make_shared<campaign::SubprocessTransport>(2), options);

  std::vector<int> emitted;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_direct(runner, study, emitted);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("all 2 workers lost"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, options.hang_timeout / 3);
  // Only an in-order prefix below the poison index reached emit.
  ASSERT_LE(emitted.size(), 3u);
  for (std::size_t i = 0; i < emitted.size(); ++i)
    EXPECT_EQ(emitted[i], static_cast<int>(i));
  EXPECT_EQ(runner.telemetry().workers_lost, 2);
}

// --- failure-prefix semantics across the wire --------------------------------

TEST(RemoteRunnerFaults, ExperimentFailurePrefixMatchesSerial) {
  // Index 3 fails *validation* (duplicate nickname) inside the worker —
  // generation must survive encode_study_params for wire transports.
  runtime::StudyParams study = fault_study("failing", 6, 41'000);
  auto inner = study.make_params;
  study.make_params = [inner](int k) {
    auto p = inner(k);
    if (k == 3) p.nodes.push_back(p.nodes[0]);
    return p;
  };

  const auto run_one = [&](std::shared_ptr<campaign::Runner> runner) {
    std::vector<int> emitted;
    std::string error;
    try {
      run_direct(*runner, study, emitted);
    } catch (const ConfigError& e) {
      error = e.what();
    }
    return std::pair(emitted, error);
  };

  const auto [serial_emitted, serial_error] =
      run_one(std::make_shared<campaign::SerialRunner>());
  const auto [remote_emitted, remote_error] =
      run_one(std::make_shared<campaign::RemoteRunner>(
          std::make_shared<campaign::FakeTransport>(2), test_options(1)));

  EXPECT_EQ(serial_emitted, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(remote_emitted, serial_emitted);
  ASSERT_FALSE(serial_error.empty());
  ASSERT_FALSE(remote_error.empty());
  EXPECT_NE(remote_error.find("experiment 3"), std::string::npos)
      << remote_error;
}

TEST(RemoteRunnerFaults, GeneratorThrowInForkedWorkerIsRehydrated) {
  // fork()-mode workers inherit the closure, so even generator failures
  // happen worker-side and must come back as the original ConfigError.
  runtime::StudyParams study = fault_study("genfail", 6, 42'000);
  auto inner = study.make_params;
  study.make_params = [inner](int k) {
    if (k == 3) throw ConfigError("generator exploded at " + std::to_string(k));
    return inner(k);
  };

  std::vector<int> emitted;
  std::string error;
  campaign::RemoteRunner runner(
      std::make_shared<campaign::SubprocessTransport>(2), test_options(1));
  try {
    run_direct(runner, study, emitted);
  } catch (const ConfigError& e) {
    error = e.what();
  }
  EXPECT_EQ(emitted, (std::vector<int>{0, 1, 2}));
  EXPECT_NE(error.find("generator exploded at 3"), std::string::npos) << error;
}

// The failure prefix across a study boundary: forked workers run the
// generator, which throws at (study 2, index 3) while study 3 is already
// pulled and leasable. The campaign delivers exactly serial's events —
// study 2's indices 0..2 and nothing of study 3, not even its
// on_study_begin — and the error arrives in original coordinates, with no
// cache-first annotation.
TEST(RemoteRunnerFaults, FailurePrefixAcrossAStudyBoundaryMatchesSerial) {
  std::vector<runtime::StudyParams> studies;
  for (int s = 0; s < 4; ++s)
    studies.push_back(
        fault_study("boundary-" + std::to_string(s), 6,
                    91'000 + 1'000 * static_cast<std::uint64_t>(s)));
  const auto inner = studies[2].make_params;
  studies[2].make_params = [inner](int k) {
    if (k == 3) throw ConfigError("generator exploded at 3");
    return inner(k);
  };

  // run_recorded's events die with its frame on a throw, so record here.
  std::vector<Event> serial_events;
  std::vector<Event> remote_events;
  const auto record = [&](std::shared_ptr<campaign::Runner> runner,
                          std::vector<Event>& events) {
    auto sink = std::make_shared<campaign::CallbackSink>();
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
    CampaignBuilder builder;
    for (const runtime::StudyParams& study : studies) builder.add(study);
    builder.runner(std::move(runner)).sink(sink);
    std::string error;
    try {
      builder.build().run();
    } catch (const ConfigError& e) {
      error = e.what();
    }
    return error;
  };
  const std::string serial_error =
      record(std::make_shared<campaign::SerialRunner>(), serial_events);
  // Two workers: the plan is pulled 2 * workers * span positions ahead and
  // a lease may start workers * span past the drain cursor, so study 3 is
  // pulled, and may be leased, while study 2 still drains.
  const std::string remote_error = record(
      std::make_shared<campaign::RemoteRunner>(
          std::make_shared<campaign::SubprocessTransport>(2), test_options()),
      remote_events);

  ASSERT_FALSE(serial_error.empty());
  expect_identical_events(serial_events, remote_events);
  ASSERT_FALSE(remote_events.empty());
  EXPECT_EQ(remote_events.back(), (Event{"experiment", "boundary-2", 2,
                                         remote_events.back().result_bytes}));
  for (const Event& e : remote_events) EXPECT_NE(e.study, "boundary-3");
  EXPECT_NE(remote_error.find("generator exploded at 3"), std::string::npos)
      << remote_error;
  EXPECT_EQ(remote_error.find("cache-first"), std::string::npos) << remote_error;
}

// --- lease autotuning --------------------------------------------------------

TEST(RemoteRunnerAutotune, GrowsLeasesForFastExperimentsAndStaysIdentical) {
  const auto study = fault_study("autotune-grow", 24);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  campaign::RemoteOptions options = test_options(1);  // start at span 1
  auto runner = std::make_shared<campaign::RemoteRunner>(
      std::make_shared<campaign::FakeTransport>(2), options);
  const auto remote = run_recorded(runner, study);

  // Lease geometry must never reach the results: byte-identical to serial,
  // exactly-once, in order.
  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);

  // Millisecond experiments against a 250ms target: the multiplicative
  // rule has to have grown the span, and the 32 cap has to have held.
  const campaign::RunnerTelemetry telemetry = runner->telemetry();
  EXPECT_GT(telemetry.final_lease_size, 1);
  EXPECT_LE(telemetry.final_lease_size, 32);
}

TEST(RemoteRunnerAutotune, SurvivesWorkerLossMidCampaign) {
  const auto study = fault_study("autotune-faults", 20);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);

  // The first leased link dies at its very first delivered result,
  // mid-lease or not; the survivor finishes.
  auto transport = std::make_shared<campaign::FakeTransport>(2);
  transport->kill_after_results(0, 1);
  campaign::RemoteOptions options = test_options(1);
  auto runner = std::make_shared<campaign::RemoteRunner>(transport, options);
  const auto remote = run_recorded(runner, study);

  expect_identical_events(serial.events, remote.events);
  expect_exactly_once(remote.events, study.experiments);
  EXPECT_GE(remote.summary.workers_lost, 1);
  EXPECT_GE(runner->telemetry().final_lease_size, 1);
  EXPECT_LE(runner->telemetry().final_lease_size, 32);
}

// The campaign's last leases taper: each lease is cut to at most
// ceil(pending / (2 * live workers)) of the indices not yet leased, so the
// drain tail spreads over the fleet instead of parking a worker behind one
// full span. The first lease of a 40-experiment study over two workers is
// ceil(40 / 4) = 10, not the configured 16.
TEST(RemoteRunnerAutotune, LastLeasesTaperAcrossTheFleet) {
  class LeaseLog final : public ForwardingLink {
   public:
    LeaseLog(std::unique_ptr<campaign::WorkerLink> inner,
             std::shared_ptr<std::vector<runtime::LeaseFrame>> log)
        : ForwardingLink(std::move(inner)), log_(std::move(log)) {}
    void send(const std::vector<std::uint8_t>& frame) override {
      // Leases go out on the engine thread only: the log needs no lock.
      if (is_frame_of(frame, runtime::WorkerFrame::Lease))
        log_->push_back(runtime::decode_lease_frame(frame));
      inner_->send(frame);
    }

   private:
    std::shared_ptr<std::vector<runtime::LeaseFrame>> log_;
  };

  const auto study = fault_study("taper", 40, 97'000);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto log = std::make_shared<std::vector<runtime::LeaseFrame>>();
  auto transport = std::make_shared<WrappingTransport>(
      std::make_shared<campaign::FakeTransport>(2),
      [log](std::unique_ptr<campaign::WorkerLink> link)
          -> std::unique_ptr<campaign::WorkerLink> {
        return std::make_unique<LeaseLog>(std::move(link), log);
      });
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options(16)),
      study);
  expect_identical_events(serial.events, remote.events);
  ASSERT_EQ(remote.summary.requeue_events, 0);

  ASSERT_FALSE(log->empty());
  EXPECT_EQ(log->front().hi - log->front().lo, 10u);
  std::uint32_t pending = 40;
  for (const runtime::LeaseFrame& lease : *log) {
    const std::uint32_t span = lease.hi - lease.lo;
    EXPECT_LE(span, (pending + 3) / 4)
        << "lease [" << lease.lo << ", " << lease.hi << ") with " << pending
        << " pending";
    pending -= span;
  }
  EXPECT_EQ(pending, 0u);
}

// --- options and construction ------------------------------------------------

TEST(RemoteRunnerConfig, RejectsBadConstruction) {
  EXPECT_THROW(campaign::RemoteRunner(nullptr), ConfigError);
  campaign::RemoteOptions bad_lease;
  bad_lease.lease_size = 0;
  EXPECT_THROW(campaign::RemoteRunner(
                   std::make_shared<campaign::FakeTransport>(1), bad_lease),
               ConfigError);
  campaign::RemoteOptions bad_hang;
  bad_hang.hang_timeout = std::chrono::milliseconds(0);
  EXPECT_THROW(campaign::RemoteRunner(
                   std::make_shared<campaign::FakeTransport>(1), bad_hang),
               ConfigError);
  EXPECT_THROW(campaign::FakeTransport(0), ConfigError);
  EXPECT_THROW(campaign::SubprocessTransport(0), ConfigError);
}

// --- runner specs, hostfiles, ssh argv ---------------------------------------

TEST(RemoteSpec, HostfileParsing) {
  const std::string text =
      "# fleet\n"
      "db1.example\n"
      "\n"
      "db2.example   # trailing comment\n";
  const auto hosts = campaign::parse_hostfile(text, "hosts.txt");
  EXPECT_EQ(hosts, (std::vector<std::string>{"db1.example", "db2.example"}));
  EXPECT_THROW(campaign::parse_hostfile("", "empty.txt"), ConfigError);
  EXPECT_THROW(campaign::parse_hostfile("one two\n", "bad.txt"), ConfigError);
}

TEST(RemoteSpec, RemoteRunnerSpecReadsHostfile) {
  const std::string dir = temp_dir("hostfile");
  const std::string path = dir + "/hosts";
  write_file(path, "# two workers\nalpha\nbeta\n");
  const auto runner = campaign::parse_runner_spec("remote:" + path);
  EXPECT_EQ(runner->name(), "remote(ssh:2)");
}

TEST(RemoteSpec, SshWorkerArgv) {
  campaign::SshTransport transport({"db1", "db2"});
  EXPECT_EQ(transport.worker_argv(1),
            (std::vector<std::string>{"ssh", "db2", "lokimeasure", "--worker",
                                      "--serve"}));
}

// --- end-to-end through the real CLI (needs the built lokimeasure) -----------

std::string lokimeasure_bin() {
  const char* bin = std::getenv("LOKIMEASURE_BIN");
  return bin == nullptr ? std::string() : std::string(bin);
}

TEST(SshTransportEndToEnd, IdenticalToSerialThroughSshShim) {
  const std::string bin = lokimeasure_bin();
  if (bin.empty()) GTEST_SKIP() << "LOKIMEASURE_BIN not set";

  // A local stand-in for ssh: drop the host argument, run the remote
  // command on this machine. Exercises SshTransport's real spawn path.
  const std::string dir = temp_dir("sshshim");
  const std::string shim = dir + "/fake-ssh";
  write_file(shim,
             "#!/bin/sh\n"
             "# fake ssh: ignore the host, exec the command locally\n"
             "shift\n"
             "exec \"$@\"\n");
  ASSERT_EQ(::chmod(shim.c_str(), 0755), 0);

  const auto study = fault_study("ssh-identity", 6, 51'000);
  const auto serial =
      run_recorded(std::make_shared<campaign::SerialRunner>(), study);
  auto transport = std::make_shared<campaign::SshTransport>(
      std::vector<std::string>{"hostA", "hostB"},
      std::vector<std::string>{bin, "--worker", "--serve"}, shim);
  const auto remote = run_recorded(
      std::make_shared<campaign::RemoteRunner>(transport, test_options()),
      study);
  expect_identical_events(serial.events, remote.events);
}

// --- retired CLI modes fail closed -------------------------------------------

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RetiredCliModes, WorkerRangeModeIsAConfigError) {
  const std::string bin = lokimeasure_bin();
  if (bin.empty()) GTEST_SKIP() << "LOKIMEASURE_BIN not set";

  const std::string dir = temp_dir("retired");
  const auto rejects = [&](const std::string& args, const std::string& why) {
    const std::string err = dir + "/err.txt";
    EXPECT_NE(run_command("'" + bin + "' " + args + " > /dev/null 2> '" + err +
                          "'"),
              0)
        << args;
    EXPECT_NE(read_file(err).find(why), std::string::npos) << read_file(err);
  };
  // The range-mode worker and its study-file fallback are gone: only a
  // bare --serve remains, and the study arrives in the Hello frame.
  rejects("--worker study.bin 0 6", "--worker takes only --serve");
  rejects("--worker --serve study.bin", "--worker takes only --serve");
}

// The cache no longer evicts, so its size budgets are gone: a script that
// still passes one must fail rather than run a campaign whose cache it
// believes bounded.
TEST(RetiredCliModes, CacheBudgetFlagsAreRejected) {
  const std::string bin = lokimeasure_bin();
  if (bin.empty()) GTEST_SKIP() << "LOKIMEASURE_BIN not set";

  const std::string dir = temp_dir("cache-budget");
  const std::string err = dir + "/err.txt";
  for (const std::string flag : {"--cache-max-bytes 4096",
                                 "--cache-max-entries 3"}) {
    EXPECT_EQ(run_command("'" + bin + "' --campaign --cache '" + dir +
                          "/cache' " + flag + " > /dev/null 2> '" + err + "'"),
              1)
        << flag;
    EXPECT_NE(read_file(err).find("unknown --campaign option"),
              std::string::npos)
        << read_file(err);
  }
}

TEST(CliNumericFlags, MalformedNumbersAreConfigErrors) {
  const std::string bin = lokimeasure_bin();
  if (bin.empty()) GTEST_SKIP() << "LOKIMEASURE_BIN not set";

  const std::string dir = temp_dir("numeric");
  const std::string err = dir + "/err.txt";
  // Prefix parsing would run 2 experiments for "2abc", and unsigned
  // wrap-around would run seed 18446744073709551615 for "-1". Both must
  // exit 1 with a ConfigError that names the flag.
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--experiments", "2abc"}, {"--seed", "-1"}}) {
    EXPECT_EQ(run_command("'" + bin + "' --campaign " + flag + " " + value +
                          " > /dev/null 2> '" + err + "'"),
              1)
        << flag << " " << value;
    EXPECT_NE(read_file(err).find(flag + " needs a number, got '" + value +
                                  "'"),
              std::string::npos)
        << read_file(err);
  }
}

// --journal-group tunes --journal/--resume; alone, it used to exit 0 having
// changed nothing. It must exit 1 with a ConfigError that names it, and
// still run with its parent.
TEST(CliFlags, DependentFlagsNeedTheirParent) {
  const std::string bin = lokimeasure_bin();
  if (bin.empty()) GTEST_SKIP() << "LOKIMEASURE_BIN not set";

  const std::string dir = temp_dir("dependent");
  const std::string err = dir + "/err.txt";
  EXPECT_EQ(run_command("'" + bin + "' --campaign --journal-group 4" +
                        " > /dev/null 2> '" + err + "'"),
            1);
  EXPECT_NE(read_file(err).find("--journal-group requires --journal or "
                                "--resume"),
            std::string::npos)
      << read_file(err);
  EXPECT_EQ(run_command("'" + bin + "' --campaign --experiments 1 --cache '" +
                        dir + "/cache' --journal '" + dir +
                        "/journal' --journal-group 4 > /dev/null 2> '" + err +
                        "'"),
            0)
      << read_file(err);
}

}  // namespace
}  // namespace loki
