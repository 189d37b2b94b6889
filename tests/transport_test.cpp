// Transport conformance: one parameterized suite run against every
// campaign::Transport backend (FakeTransport, SubprocessTransport, and
// SshTransport through a local shim that execs `lokimeasure --worker
// --serve`), driving the worker frame protocol by hand — handshake, lease
// round-trip, a lease outside the study, large frames both ways, abrupt
// close, double close — so a future backend plugs into ready-made coverage.
// Links have no timeout, so every recv here runs under a watchdog that
// kill()s a link silent for 10 s and fails the test: a broken backend fails
// fast instead of hanging the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"
#include "util/text_file.hpp"

namespace loki {
namespace {

using runtime::WorkerFrame;

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

/// How long a link may stay silent before the watchdog kills it.
constexpr std::chrono::milliseconds kRecvTimeout{10'000};
/// Heartbeat interval for hand-driven Hellos: far longer than any test
/// lease, so no unscripted heartbeat interleaves with the expected frames.
constexpr std::uint32_t kHeartbeatMs = 60'000;

/// Kills `link` unless destroyed within kRecvTimeout, and then fails the
/// test. kill() is the one call that must end a blocked recv() promptly, so
/// a backend that never answers costs seconds, not ctest's whole timeout.
class Watchdog {
 public:
  explicit Watchdog(campaign::WorkerLink& link)
      : thread_([this, &link] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, kRecvTimeout, [this] { return disarmed_; })) {
            fired_ = true;
            link.kill();
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
    EXPECT_FALSE(fired_) << "link silent for " << kRecvTimeout.count()
                         << " ms: killed";
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_{false};
  bool fired_{false};
  std::thread thread_;
};

/// link.recv() under a Watchdog.
std::optional<std::vector<std::uint8_t>> recv_within(
    campaign::WorkerLink& link) {
  const Watchdog watchdog(link);
  return link.recv();
}

runtime::StudyParams tiny_study(int experiments = 4) {
  runtime::StudyParams study;
  study.name = "conformance";
  study.experiments = experiments;
  study.make_params = [](int k) {
    apps::ElectionParams app;
    app.run_for = milliseconds(150);
    return apps::election_experiment(
        100 + static_cast<std::uint64_t>(k), {"hostA", "hostB"},
        {{"black", "hostA"}, {"yellow", "hostB"}}, app);
  };
  return study;
}

struct TransportFactory {
  std::string label;
  // Returns nullptr when the backend's prerequisites (the built lokimeasure
  // binary) are unavailable in this environment.
  std::function<std::shared_ptr<campaign::Transport>(int workers)> make;
};

std::string lokimeasure_bin() {
  const char* bin = std::getenv("LOKIMEASURE_BIN");
  return bin == nullptr ? std::string() : std::string(bin);
}

std::string shim_dir() {
  static const std::string dir = [] {
    const std::string d =
        testing::TempDir() + "loki-transport-" + std::to_string(::getpid());
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

std::vector<TransportFactory> factories() {
  std::vector<TransportFactory> list;
  list.push_back({"fake", [](int workers) {
                    return std::make_shared<campaign::FakeTransport>(workers);
                  }});
  list.push_back({"subprocess_fork", [](int workers) {
                    return std::make_shared<campaign::SubprocessTransport>(
                        workers);
                  }});
  list.push_back(
      {"ssh_shim", [](int workers) -> std::shared_ptr<campaign::Transport> {
         const std::string bin = lokimeasure_bin();
         if (bin.empty()) return nullptr;
         const std::string shim = shim_dir() + "/fake-ssh";
         if (!std::filesystem::exists(shim)) {
           write_file(shim,
                      "#!/bin/sh\n"
                      "shift\n"
                      "exec \"$@\"\n");
           if (::chmod(shim.c_str(), 0755) != 0) return nullptr;
         }
         std::vector<std::string> hosts;
         for (int w = 0; w < workers; ++w)
           hosts.push_back("host" + std::to_string(w));
         return std::make_shared<campaign::SshTransport>(
             std::move(hosts),
             std::vector<std::string>{bin, "--worker", "--serve"}, shim);
       }});
  return list;
}

class TransportConformance : public testing::TestWithParam<TransportFactory> {
 protected:
  /// Spawn worker 0 of a fresh transport over a study of `experiments`.
  /// False (test marked skipped) when the backend's prerequisites are
  /// missing — callers must return early.
  [[nodiscard]] bool start(int workers = 1, int experiments = 4) {
    transport_ = GetParam().make(workers);
    if (!transport_) {
      mark_skipped();
      return false;
    }
    studies_ = {tiny_study(experiments)};
    link_ = transport_->connect(0, studies_);
    return true;
  }

  void mark_skipped() { GTEST_SKIP() << "LOKIMEASURE_BIN not set"; }

  /// Hello (with the studies when `link` needs them) and its HelloAck.
  void handshake(campaign::WorkerLink& link) {
    link.send(runtime::encode_hello_frame(
        link.needs_study_bytes() ? &studies_ : nullptr, kHeartbeatMs));
    EXPECT_EQ(runtime::decode_hello_ack_frame(expect_frame(link)),
              runtime::kWorkerProtocolVersion);
  }
  void handshake() { handshake(*link_); }

  std::vector<std::uint8_t> expect_frame(campaign::WorkerLink& link) {
    std::optional<std::vector<std::uint8_t>> frame = recv_within(link);
    EXPECT_TRUE(frame.has_value()) << "the stream ended";
    if (!frame.has_value()) throw std::runtime_error("expected a frame");
    return std::move(*frame);
  }
  std::vector<std::uint8_t> expect_frame() { return expect_frame(*link_); }

  void expect_eof(campaign::WorkerLink& link) {
    EXPECT_FALSE(recv_within(link).has_value());
  }
  void expect_eof() { expect_eof(*link_); }

  /// Lease [lo, hi) of study 0 to `link`, a fresh worker, and read the
  /// whole answer: ResultBatch frames first (no opening heartbeat), then
  /// the closing stats heartbeat and LeaseDone. Every result must equal a
  /// local run of its params. Returns the largest batch frame's size.
  std::size_t expect_lease(campaign::WorkerLink& link, std::uint32_t id,
                           std::uint32_t lo, std::uint32_t hi) {
    link.send(runtime::encode_lease_frame({id, /*study=*/0, lo, hi}));
    std::size_t largest = 0;
    std::vector<runtime::ResultFrame> results;
    while (results.size() < hi - lo) {
      const auto frame = expect_frame(link);
      EXPECT_EQ(runtime::worker_frame_type(frame), WorkerFrame::ResultBatch);
      largest = std::max(largest, frame.size());
      auto batch = runtime::decode_result_batch_frame(frame);
      EXPECT_FALSE(batch.empty()) << "a flushed batch is never empty";
      for (auto& entry : batch) results.push_back(std::move(entry));
    }
    EXPECT_EQ(results.size(), hi - lo) << "batches must not overrun the lease";
    for (std::uint32_t k = lo; k < hi; ++k) {
      const runtime::ResultFrame& result = results[k - lo];
      EXPECT_TRUE(result.ok);
      EXPECT_EQ(result.index, k);
      // The transport's worker must compute exactly what we compute here.
      EXPECT_EQ(runtime::encode_experiment_result(result.result),
                runtime::encode_experiment_result(runtime::run_experiment(
                    studies_[0].make_params(static_cast<int>(k)))));
    }
    // Every lease closes with a stats-bearing heartbeat, then LeaseDone.
    const runtime::WorkerStatsSnapshot closing =
        runtime::decode_heartbeat_frame(expect_frame(link));
    EXPECT_EQ(closing.experiments_completed, hi - lo);
    EXPECT_GE(closing.batches_flushed, 1u);
    EXPECT_EQ(runtime::decode_lease_done_frame(expect_frame(link)), id);
    return largest;
  }

  std::shared_ptr<campaign::Transport> transport_;
  std::vector<runtime::StudyParams> studies_;
  std::unique_ptr<campaign::WorkerLink> link_;
};

TEST_P(TransportConformance, HandshakeAcksProtocolVersion) {
  if (!start()) return;
  handshake();
  link_->send(runtime::encode_shutdown_frame());
  expect_eof();
}

TEST_P(TransportConformance, LeaseRoundTripInOrder) {
  if (!start()) return;
  handshake();
  expect_lease(*link_, /*id=*/7, 0, 2);
  link_->send(runtime::encode_shutdown_frame());
  expect_eof();
}

TEST_P(TransportConformance, LeaseOutsideTheStudyEndsTheWorker) {
  if (!start()) return;
  handshake();
  // The study declares 4 experiments; index 4 does not exist. The worker
  // must refuse the whole lease before running or writing anything and
  // exit, so the parent sees the stream end (and a RemoteRunner would
  // requeue).
  link_->send(runtime::encode_lease_frame(
      {/*id=*/9, /*study=*/0, 2,
       static_cast<std::uint32_t>(studies_[0].experiments) + 1}));
  expect_eof();
}

TEST_P(TransportConformance, LeaseNamingAMissingStudyEndsTheWorker) {
  if (!start()) return;
  handshake();
  // The campaign has one study; a lease on study 1 is refused the same way.
  link_->send(runtime::encode_lease_frame({/*id=*/10, /*study=*/1, 0, 1}));
  expect_eof();
}

TEST_P(TransportConformance, LargeFramesCrossBothWays) {
  // Parent to worker: a Hello carrying a materialized study of 2400
  // experiments (~5 MB), sent to every backend, fork()ed ones included —
  // far beyond a pipe buffer, so partial writes and reads and the length
  // framing are genuinely exercised.
  if (!start(1, 2400)) return;
  const std::vector<std::uint8_t> hello =
      runtime::encode_hello_frame(&studies_, kHeartbeatMs);
  ASSERT_GE(hello.size(), std::size_t{4} << 20);
  link_->send(hello);
  EXPECT_EQ(runtime::decode_hello_ack_frame(expect_frame()),
            runtime::kWorkerProtocolVersion);
  // Worker to parent: a 24-experiment lease of the framed study. The pipe
  // backends batch results up to 64 KiB, so their first batch frame
  // crosses the 64 KiB pipe buffer; FakeTransport flushes every result.
  const std::size_t largest = expect_lease(*link_, /*id=*/1, 0, 24);
  if (GetParam().label != "fake") {
    EXPECT_GT(largest, std::size_t{64} << 10);
  }
}

TEST_P(TransportConformance, AbruptCloseSurfacesAsEofThenSendFails) {
  if (!start()) return;
  handshake();
  link_->kill();
  expect_eof();
  // With the worker gone, writes must start failing loudly (EPIPE), not
  // wedge. "Start": a SIGKILLed process's two pipe ends close one after
  // the other, so the first write racing the teardown may still land in
  // the dead pipe's buffer — RemoteRunner tolerates that via the EOF path.
  bool threw = false;
  for (int i = 0; i < 500 && !threw; ++i) {
    try {
      link_->send(runtime::encode_shutdown_frame());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw) << "send kept succeeding against a dead worker";
}

TEST_P(TransportConformance, DoubleCloseIsIdempotent) {
  if (!start()) return;
  handshake();
  link_->kill();
  link_->kill();
  expect_eof();
  link_->kill();  // after the stream ended too
  link_.reset();  // destructor after kill must reap without incident
}

TEST_P(TransportConformance, CleanShutdownEndsStream) {
  if (!start()) return;
  handshake();
  link_->send(runtime::encode_shutdown_frame());
  expect_eof();
}

TEST_P(TransportConformance, TwoWorkersAreIndependent) {
  if (!start(2)) return;
  auto link1 = transport_->connect(1, studies_);
  handshake();
  handshake(*link1);
  // Killing worker 1 must not disturb worker 0's stream.
  link1->kill();
  expect_eof(*link1);
  expect_lease(*link_, /*id=*/3, 1, 2);
}

TEST(FakeTransportJoinDiscipline, OwnerJoinsEveryWorkerThread) {
  // Regression for the FakeWorker trap: the worker thread must be joined
  // by its owner via stop_and_join (the slot's next connect, transport
  // destruction), never torn down by its own lambda's last shared_ptr
  // release — a thread destroying its own FakeWorker can only detach,
  // leaving an unsynchronized thread behind (the pattern the TSan job
  // exists to catch). Every teardown ordering below must therefore leave
  // the self-detach escape hatch unused.
  const std::uint64_t before = campaign::detail::fake_worker_self_detaches();
  const std::vector<runtime::StudyParams> studies{tiny_study()};
  {
    campaign::FakeTransport transport(2);

    // Ordering 1: the link dies first, while the worker thread may still
    // be serving; the transport (owner) must join it when the slot is
    // connected again (as the next run does).
    auto link = transport.connect(0, studies);
    link->send(runtime::encode_hello_frame(&studies, kHeartbeatMs));
    link.reset();  // closes the worker's stdin mid-conversation
    link = transport.connect(0, studies);  // joins the predecessor thread

    // Ordering 2: kill() ends the stream but the thread outlives the link;
    // again the owner joins at the slot's next connect.
    link->kill();
    EXPECT_FALSE(recv_within(*link).has_value());
    link.reset();
    link = transport.connect(0, studies);

    // Ordering 3: a second worker is spun up and both links are released
    // before the transport goes away; ~FakeTransport joins both threads.
    auto other = transport.connect(1, studies);
    other->send(runtime::encode_hello_frame(&studies, kHeartbeatMs));
    link.reset();
    other.reset();
  }  // ~FakeTransport: owner-side join of every live worker thread
  EXPECT_EQ(campaign::detail::fake_worker_self_detaches(), before)
      << "a FakeWorker thread tore itself down via detach — worker threads "
         "must be joined by the owning FakeTransport (stop_and_join)";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TransportConformance,
                         testing::ValuesIn(factories()),
                         [](const testing::TestParamInfo<TransportFactory>& i) {
                           return i.param.label;
                         });

}  // namespace
}  // namespace loki
