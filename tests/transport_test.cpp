// Transport conformance: one parameterized suite run against every
// campaign::Transport backend (FakeTransport, SubprocessTransport, and
// SshTransport through a local shim that execs `lokimeasure --worker
// --serve`), driving the worker frame protocol by hand — handshake, lease
// round-trip, a lease outside the study, large frames, abrupt close, double
// close — so a future backend plugs into ready-made coverage.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <memory>
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

using campaign::RecvOutcome;
using runtime::WorkerFrame;

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

constexpr std::chrono::milliseconds kRecvTimeout{10'000};
/// Heartbeat interval for hand-driven Hellos: far longer than any test
/// lease, so no unscripted heartbeat interleaves with the expected frames.
constexpr std::uint32_t kHeartbeatMs = 60'000;

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
  /// Spawn worker 0 of a fresh transport. False (test marked skipped) when
  /// the backend's prerequisites are missing — callers must return early.
  [[nodiscard]] bool start(int workers = 1) {
    transport_ = GetParam().make(workers);
    if (!transport_) {
      mark_skipped();
      return false;
    }
    studies_ = {tiny_study()};
    link_ = transport_->connect(0, studies_);
    return true;
  }

  void mark_skipped() { GTEST_SKIP() << "LOKIMEASURE_BIN not set"; }

  void handshake() {
    link_->send(runtime::encode_hello_frame(
        link_->needs_study_bytes() ? &studies_ : nullptr, kHeartbeatMs));
    const RecvOutcome out = link_->recv(kRecvTimeout);
    ASSERT_EQ(out.status, RecvOutcome::Status::Frame);
    const runtime::HelloAckFrame ack =
        runtime::decode_hello_ack_frame(out.frame);
    EXPECT_EQ(ack.protocol_version, runtime::kWorkerProtocolVersion);
  }

  std::vector<std::uint8_t> expect_frame() {
    RecvOutcome out = link_->recv(kRecvTimeout);
    EXPECT_EQ(out.status, RecvOutcome::Status::Frame);
    if (out.status != RecvOutcome::Status::Frame)
      throw std::runtime_error("expected a frame");
    return std::move(out.frame);
  }

  /// Read result-bearing frames (v2 workers emit ResultBatch) until `count`
  /// entries arrived, returned in arrival order.
  std::vector<runtime::ResultFrame> expect_results(std::size_t count) {
    std::vector<runtime::ResultFrame> entries;
    while (entries.size() < count) {
      const auto frame = expect_frame();
      EXPECT_EQ(runtime::worker_frame_type(frame), WorkerFrame::ResultBatch);
      auto batch = runtime::decode_result_batch_frame(frame);
      EXPECT_FALSE(batch.empty()) << "a flushed batch is never empty";
      for (auto& entry : batch) entries.push_back(std::move(entry));
    }
    EXPECT_EQ(entries.size(), count) << "batches must not overrun the lease";
    return entries;
  }

  std::shared_ptr<campaign::Transport> transport_;
  std::vector<runtime::StudyParams> studies_;
  std::unique_ptr<campaign::WorkerLink> link_;
};

TEST_P(TransportConformance, HandshakeAcksProtocolVersion) {
  if (!start()) return;
  handshake();
  link_->send(runtime::encode_shutdown_frame());
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
}

TEST_P(TransportConformance, LeaseRoundTripInOrder) {
  if (!start()) return;
  handshake();
  link_->send(runtime::encode_lease_frame({/*id=*/7, /*study=*/0, 0, 2}));
  const runtime::HeartbeatFrame opening =
      runtime::decode_heartbeat_frame(expect_frame());
  EXPECT_EQ(opening.lease_id, 7u);
  EXPECT_EQ(opening.stats.experiments_completed, 0u);  // fresh worker
  const std::vector<runtime::ResultFrame> results = expect_results(2);
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(results[k].ok);
    EXPECT_EQ(results[k].index, k);
    // The transport's worker must compute exactly what we compute here.
    EXPECT_EQ(runtime::encode_experiment_result(results[k].result),
              runtime::encode_experiment_result(runtime::run_experiment(
                  studies_[0].make_params(static_cast<int>(k)))));
  }
  // Every lease closes with a stats-bearing heartbeat, then LeaseDone.
  const runtime::HeartbeatFrame closing =
      runtime::decode_heartbeat_frame(expect_frame());
  EXPECT_EQ(closing.lease_id, 7u);
  EXPECT_EQ(closing.stats.experiments_completed, 2u);
  EXPECT_GE(closing.stats.batches_flushed, 1u);
  EXPECT_EQ(runtime::decode_lease_done_frame(expect_frame()), 7u);
  link_->send(runtime::encode_shutdown_frame());
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
}

TEST_P(TransportConformance, LeaseOutsideTheStudyEndsTheWorker) {
  if (!start()) return;
  handshake();
  // The study declares 4 experiments; index 4 does not exist. The worker
  // must refuse the whole lease before running anything — not even the
  // opening heartbeat goes out — and exit, so the parent sees Eof (and a
  // RemoteRunner would requeue).
  link_->send(runtime::encode_lease_frame(
      {/*id=*/9, /*study=*/0, 2,
       static_cast<std::uint32_t>(studies_[0].experiments) + 1}));
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
}

TEST_P(TransportConformance, LeaseNamingAMissingStudyEndsTheWorker) {
  if (!start()) return;
  handshake();
  // The campaign has one study; a lease on study 1 is refused the same way.
  link_->send(runtime::encode_lease_frame({/*id=*/10, /*study=*/1, 0, 1}));
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
}

TEST_P(TransportConformance, LargeFrameRoundTrips) {
  if (!start()) return;
  handshake();
  // ~5 MiB of patterned payload: far beyond a pipe buffer, so partial
  // reads/writes and length framing are genuinely exercised.
  std::vector<std::uint8_t> payload(5u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  link_->send(runtime::encode_ping_frame(payload));
  EXPECT_EQ(runtime::decode_pong_frame(expect_frame()), payload);
}

TEST_P(TransportConformance, EmptyPingRoundTrips) {
  if (!start()) return;
  handshake();
  link_->send(runtime::encode_ping_frame({}));
  EXPECT_TRUE(runtime::decode_pong_frame(expect_frame()).empty());
}

TEST_P(TransportConformance, AbruptCloseSurfacesAsEofThenSendFails) {
  if (!start()) return;
  handshake();
  link_->kill();
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
  // With the worker gone, writes must start failing loudly (EPIPE), not
  // wedge. "Start": a SIGKILLed process's two pipe ends close one after
  // the other, so the first write racing the teardown may still land in
  // the dead pipe's buffer — RemoteRunner tolerates that via the EOF path.
  bool threw = false;
  for (int i = 0; i < 500 && !threw; ++i) {
    try {
      link_->send(runtime::encode_ping_frame({1, 2, 3}));
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
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
  link_->kill();  // after Eof too
  link_.reset();  // destructor after kill must reap without incident
}

TEST_P(TransportConformance, CleanShutdownEndsStream) {
  if (!start()) return;
  handshake();
  link_->send(runtime::encode_shutdown_frame());
  EXPECT_EQ(link_->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
}

TEST_P(TransportConformance, RecvTimesOutWhileWorkerIdles) {
  if (!start()) return;
  handshake();
  // No lease outstanding: the worker is silent, and recv must report a
  // timeout (not block, not fabricate Eof).
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(link_->recv(std::chrono::milliseconds(100)).status,
            RecvOutcome::Status::Timeout);
  EXPECT_GE(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(90));
}

TEST_P(TransportConformance, TwoWorkersAreIndependent) {
  if (!start(2)) return;
  auto link1 = transport_->connect(1, studies_);
  handshake();
  link1->send(runtime::encode_hello_frame(
      link1->needs_study_bytes() ? &studies_ : nullptr, kHeartbeatMs));
  {
    const RecvOutcome out = link1->recv(kRecvTimeout);
    ASSERT_EQ(out.status, RecvOutcome::Status::Frame);
    (void)runtime::decode_hello_ack_frame(out.frame);
  }
  // Killing worker 1 must not disturb worker 0's stream.
  link1->kill();
  EXPECT_EQ(link1->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
  link_->send(runtime::encode_ping_frame({42}));
  EXPECT_EQ(runtime::decode_pong_frame(expect_frame()),
            (std::vector<std::uint8_t>{42}));
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
    EXPECT_EQ(link->recv(kRecvTimeout).status, RecvOutcome::Status::Eof);
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
