#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/load.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace loki::sim {
namespace {

TEST(EventQueue, FifoAtSameInstant) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  q.schedule_at(SimTime{100}, [&] { order.push_back(2); });
  q.schedule_at(SimTime{50}, [&] { order.push_back(0); });
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RunUntilAdvancesClock) {
  EventQueue q;
  q.run_until(SimTime{1000});
  EXPECT_EQ(q.now().ns, 1000);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(SimTime{10}, [&] {
    q.schedule_in(Duration{5}, [&] { ++fired; });
  });
  q.run_to_completion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now().ns, 15);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_at(SimTime{10}, [] {});
  q.run_to_completion();
  EXPECT_THROW(q.schedule_at(SimTime{5}, [] {}), LogicError);
}

TEST(EventQueue, ActionSchedulingIntoOwnTimestampRunsInSeqOrder) {
  // The (time, seq) contract at one instant: an action that schedules into
  // its *own* timestamp runs after everything already queued there (it has
  // a later sequence number), never before.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime{100}, [&] {
    order.push_back(1);
    q.schedule_at(SimTime{100}, [&] { order.push_back(3); });  // same instant
    q.schedule_in(Duration{0}, [&] { order.push_back(4); });   // now() == 100
  });
  q.schedule_at(SimTime{100}, [&] { order.push_back(2); });  // pre-queued
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now().ns, 100);
}

TEST(EventQueue, InterleavedScheduleAndRunKeepsDeterministicOrder) {
  // Mixed timestamps with ties, scheduled both before and during the run:
  // execution must sort by (time, seq) regardless of heap internals.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime{30}, [&] { order.push_back(5); });
  q.schedule_at(SimTime{10}, [&] {
    order.push_back(1);
    q.schedule_at(SimTime{20}, [&] { order.push_back(3); });
    q.schedule_at(SimTime{30}, [&] { order.push_back(6); });
  });
  q.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  q.run_until(SimTime{20});
  q.schedule_at(SimTime{25}, [&] { order.push_back(4); });
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, SteadyStateLoopIsAllocationFree) {
  // A self-rescheduling chain with a capture within Task::kInlineSize: after
  // warm-up, neither the slab nor the Task heap-fallback counter may move.
  EventQueue q;
  struct Chain {
    EventQueue* q;
    std::uint64_t remaining;
    std::uint64_t ticks = 0;
    void step() {
      ++ticks;
      if (remaining-- > 0)
        q->schedule_in(Duration{10}, [this] { step(); });
    }
  };
  Chain chain{&q, 20000};
  q.schedule_at(SimTime{0}, [&] { chain.step(); });
  q.run_until(SimTime{100});  // warm-up

  const std::size_t slab_before = q.slab_capacity();
  const std::uint64_t heap_before = Task::heap_allocations();
  q.run_to_completion();
  EXPECT_EQ(q.slab_capacity(), slab_before) << "slab grew in steady state";
  EXPECT_EQ(Task::heap_allocations(), heap_before)
      << "a task capture overflowed the inline buffer";
  EXPECT_EQ(chain.ticks, 20001u);
}

TEST(EventQueue, OversizedCapturesStillRunViaHeapFallback) {
  EventQueue q;
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineSize
  big[15] = 42;
  std::uint64_t got = 0;
  const std::uint64_t heap_before = Task::heap_allocations();
  q.schedule_at(SimTime{1}, [big, &got] { got = big[15]; });
  EXPECT_EQ(Task::heap_allocations(), heap_before + 1);
  q.run_to_completion();
  EXPECT_EQ(got, 42u);
}

/// Reference model of the (time, seq) contract. Every schedule call is
/// logged in call order, which is seq order, so whatever the queue does
/// inside, the events it has run by a limit must be the stable sort of the
/// log by time, cut at that limit.
struct QueueModel {
  struct Scheduled {
    std::int64_t at;
    std::uint64_t id;
  };
  EventQueue* q;
  Rng rng;
  std::vector<Scheduled> log{};  // since the last reset
  std::vector<std::uint64_t> ran{};
  std::uint64_t next_id = 0;
  std::size_t budget = 0;  // schedules the actions may still make
  std::int64_t spread = 0;
  /// When set, every task also holds a reference: reset() must drop it.
  std::shared_ptr<int> token{};

  std::int64_t delay() {
    switch (rng.uniform_int(0, 3)) {
      case 0: return 0;                           // into the same instant
      case 1: return 10 * rng.uniform_int(0, 3);  // ties on a coarse grid
      default: return rng.uniform_int(0, spread);
    }
  }
  void schedule(std::int64_t at) {
    const std::uint64_t id = next_id++;
    log.push_back({at, id});
    if (token) {
      q->schedule_at(SimTime{at}, [this, id, t = token] { fire(id); });
    } else {
      q->schedule_at(SimTime{at}, [this, id] { fire(id); });
    }
  }
  /// An action logs itself and schedules 0-2 successors, which keeps a
  /// burst near its size until the budget runs out.
  void fire(std::uint64_t id) {
    ran.push_back(id);
    for (std::int64_t n = rng.uniform_int(0, 2); n > 0 && budget > 0; --n) {
      --budget;
      schedule(q->now().ns + delay());
    }
  }
  std::vector<std::uint64_t> expected(std::int64_t limit) const {
    std::vector<Scheduled> sorted = log;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Scheduled& a, const Scheduled& b) {
                       return a.at < b.at;
                     });
    std::vector<std::uint64_t> ids;
    for (const Scheduled& s : sorted)
      if (s.at <= limit) ids.push_back(s.id);
    return ids;
  }
};

TEST(EventQueue, RandomSchedulesRunInStableTimeOrder) {
  // Bursts on both sides of the sorted run's 32 keys, up to about 1,000
  // pending; limits on an instant that holds several events, just before
  // one, or anywhere; every third epoch ends in a reset() with tasks still
  // pending, and every epoch reuses the one queue.
  const std::size_t kBursts[] = {1, 4, 10, 31, 32, 33, 100, 1000};
  EventQueue q;
  QueueModel m{&q, Rng(26)};
  int pending_resets = 0;
  for (int epoch = 0; epoch < 48; ++epoch) {
    SCOPED_TRACE(testing::Message() << "epoch " << epoch);
    const std::size_t burst = kBursts[epoch % 8];
    m.log.clear();
    m.ran.clear();
    m.budget = 3 * burst + 100;
    m.spread = m.rng.bernoulli(0.5) ? 50 : 200000;
    m.token = epoch % 2 == 0 ? std::make_shared<int>(0) : nullptr;
    for (std::size_t i = 0; i < burst; ++i) m.schedule(m.delay());

    for (int step = 0; step < 10 && !q.empty(); ++step) {
      const std::int64_t now = q.now().ns;
      std::int64_t limit = now;
      const std::int64_t pick =
          m.log[static_cast<std::size_t>(m.rng.uniform_int(
                    0, static_cast<std::int64_t>(m.log.size()) - 1))]
              .at;
      switch (m.rng.uniform_int(0, 3)) {
        case 0: break;
        case 1: limit = std::max(now, pick); break;
        case 2: limit = std::max(now, pick - 1); break;
        default: limit = now + m.rng.uniform_int(0, m.spread); break;
      }
      const std::size_t ran_before = m.ran.size();
      const std::uint64_t n = q.run_until(SimTime{limit});
      EXPECT_EQ(n, m.ran.size() - ran_before);
      ASSERT_EQ(m.ran, m.expected(limit)) << "step " << step;
      EXPECT_EQ(q.executed(), m.ran.size());
      EXPECT_EQ(q.now().ns, limit);
      // Schedules from outside the run, at the limit and later.
      for (std::int64_t k = m.rng.uniform_int(0, 3); k > 0; --k)
        m.schedule(limit + m.delay());
    }

    if (epoch % 3 == 2 && !q.empty()) {
      ++pending_resets;
      q.reset();
      EXPECT_TRUE(q.empty());
      EXPECT_EQ(q.now().ns, 0);
      EXPECT_EQ(q.executed(), 0u);
      if (m.token) {
        EXPECT_EQ(m.token.use_count(), 1) << "a dropped task lives";
      }
      continue;
    }
    q.run_to_completion();
    ASSERT_EQ(m.ran, m.expected(std::numeric_limits<std::int64_t>::max()));
    EXPECT_EQ(q.executed(), m.ran.size());
    if (m.token) {
      EXPECT_EQ(m.token.use_count(), 1) << "a run task lives";
    }
    q.reset();
  }
  EXPECT_GE(pending_resets, 8);
}

TEST(Clock, LinearModel) {
  HostClock clock({Duration{1000}, 2.0, 1});
  EXPECT_EQ(clock.read(SimTime{0}).ns, 1000);
  EXPECT_EQ(clock.read(SimTime{500}).ns, 2000);
}

TEST(Clock, Granularity) {
  HostClock clock({Duration{0}, 1.0, 1000});
  EXPECT_EQ(clock.read(SimTime{1234567}).ns, 1234000);
}

TEST(Clock, InverseRoundTrip) {
  HostClock clock({Duration{-500}, 1.0001, 1});
  const SimTime t{123456789};
  const SimTime back = clock.to_physical(clock.read(t));
  EXPECT_NEAR(static_cast<double>(back.ns), static_cast<double>(t.ns), 2.0);
}

TEST(Clock, RandomParamsWithinEnvelope) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const ClockParams p =
        HostClock::random_params(rng, milliseconds(10), 100.0, 1000);
    EXPECT_LE(std::abs(p.alpha.ns), milliseconds(10).ns);
    EXPECT_NEAR(p.beta, 1.0, 100e-6);
    EXPECT_EQ(p.granularity_ns, 1000);
  }
}

TEST(Network, IpcFasterThanTcp) {
  Network net(NetworkParams{}, Rng(1));
  const SimTime now{0};
  double ipc_total = 0, tcp_total = 0;
  for (int i = 0; i < 200; ++i) {
    ipc_total +=
        static_cast<double>((net.delivery_time(now, ProcessId{1}, ProcessId{2},
                                               ChannelClass::Ipc) -
                             now).ns);
    tcp_total +=
        static_cast<double>((net.delivery_time(now, ProcessId{3}, ProcessId{4},
                                               ChannelClass::Tcp) -
                             now).ns);
  }
  // The thesis quotes ~20us IPC vs ~150us TCP — nearly an order of magnitude.
  EXPECT_GT(tcp_total / ipc_total, 4.0);
}

TEST(Network, FifoPerLink) {
  Network net(NetworkParams{}, Rng(2));
  SimTime prev{0};
  for (int i = 0; i < 100; ++i) {
    const SimTime d = net.delivery_time(SimTime{i * 10}, ProcessId{1},
                                        ProcessId{2}, ChannelClass::Tcp);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

World make_world() {
  WorldParams wp;
  wp.seed = 99;
  return World(wp);
}

TEST(World, PostRunsWorkWithCpuCost) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h = w.add_host(hp);
  const ProcessId p = w.spawn(h, "proc");
  SimTime done{};
  w.post(p, microseconds(100), [&] { done = w.now(); });
  w.run_to_completion();
  // Cost 100us + context switch (default 30us).
  EXPECT_GE(done.ns, microseconds(100).ns);
  EXPECT_LE(done.ns, microseconds(200).ns);
}

TEST(World, KillDropsPendingWorkAndDeliveries) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h = w.add_host(hp);
  const ProcessId a = w.spawn(h, "a");
  const ProcessId b = w.spawn(h, "b");
  int executed = 0;
  w.send(a, b, Lan::Control, ChannelClass::Ipc, microseconds(5),
         [&] { ++executed; });
  w.kill(b);
  w.run_to_completion();
  EXPECT_EQ(executed, 0);
  EXPECT_EQ(w.dropped_deliveries(), 1u);
}

TEST(World, TimerCancelledByKill) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h = w.add_host(hp);
  const ProcessId p = w.spawn(h, "p");
  int fired = 0;
  w.timer(p, milliseconds(5), microseconds(1), [&] { ++fired; });
  w.at(SimTime{1}, [&] { w.kill(p); });
  w.run_to_completion();
  EXPECT_EQ(fired, 0);
}

TEST(World, CrossHostMessageUsesLatency) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h0 = w.add_host(hp);
  hp.name = "h1";
  const HostId h1 = w.add_host(hp);
  const ProcessId a = w.spawn(h0, "a");
  const ProcessId b = w.spawn(h1, "b");
  SimTime arrival{};
  w.send(a, b, Lan::Control, ChannelClass::Tcp, microseconds(1),
         [&] { arrival = w.now(); });
  w.run_to_completion();
  EXPECT_GE(arrival.ns, microseconds(150).ns);  // base TCP latency
}

TEST(World, SchedulerQuantumDelaysWakeupUnderLoad) {
  // A loaded host delays a newly-ready process by up to ~a quantum; an idle
  // host runs it immediately. This is the Fig 3.2/3.3 mechanism.
  for (const bool loaded : {false, true}) {
    WorldParams wp;
    wp.seed = 7;
    World w(wp);
    HostParams hp;
    hp.name = "h0";
    hp.sched.quantum = milliseconds(10);
    const HostId h = w.add_host(hp);
    if (loaded) add_cpu_load(w, h, LoadParams{1.0, microseconds(200)});
    const ProcessId p = w.spawn(h, "p");
    // Give the load a head start so the CPU is mid-quantum.
    SimTime handled{};
    w.at(SimTime{milliseconds(7).ns}, [&] {
      w.post(p, microseconds(10), [&] { handled = w.now(); });
    });
    w.run_until(SimTime{milliseconds(40).ns});
    const Duration wait = handled - SimTime{milliseconds(7).ns};
    if (loaded) {
      EXPECT_GT(wait.ns, milliseconds(1).ns) << "load should delay the wakeup";
      EXPECT_LT(wait.ns, milliseconds(25).ns);
    } else {
      EXPECT_LT(wait.ns, milliseconds(1).ns);
    }
  }
}

TEST(World, RoundRobinSharesCpu) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  hp.sched.quantum = milliseconds(5);
  const HostId h = w.add_host(hp);
  const ProcessId l1 = add_cpu_load(w, h, LoadParams{1.0, microseconds(100)});
  const ProcessId l2 = add_cpu_load(w, h, LoadParams{1.0, microseconds(100)});
  w.run_until(SimTime{milliseconds(200).ns});
  const Duration c1 = w.process(l1).cpu_used;
  const Duration c2 = w.process(l2).cpu_used;
  EXPECT_GT(c1.ns, 0);
  EXPECT_GT(c2.ns, 0);
  const double ratio = static_cast<double>(c1.ns) / static_cast<double>(c2.ns);
  EXPECT_NEAR(ratio, 1.0, 0.2);  // fair within 20%
  EXPECT_GT(w.scheduler(h).preemptions(), 10u);
}

TEST(World, DutyCycleLoadUsesFraction) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h = w.add_host(hp);
  const ProcessId l = add_cpu_load(w, h, LoadParams{0.5, microseconds(200)});
  w.run_until(SimTime{milliseconds(500).ns});
  const double used = static_cast<double>(w.process(l).cpu_used.ns);
  EXPECT_NEAR(used / milliseconds(500).ns, 0.5, 0.12);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    WorldParams wp;
    wp.seed = 123;
    World w(wp);
    HostParams hp;
    hp.name = "h0";
    const HostId h = w.add_host(hp);
    hp.name = "h1";
    const HostId h2 = w.add_host(hp);
    const ProcessId a = w.spawn(h, "a");
    const ProcessId b = w.spawn(h2, "b");
    std::vector<std::int64_t> arrivals;
    for (int i = 0; i < 20; ++i) {
      w.at(SimTime{i * 1000}, [&w, a, b, &arrivals] {
        w.send(a, b, Lan::App, ChannelClass::Tcp, microseconds(5),
               [&] { arrivals.push_back(w.now().ns); });
      });
    }
    w.run_to_completion();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(World, HostLookup) {
  World w = make_world();
  HostParams hp;
  hp.name = "alpha";
  const HostId h = w.add_host(hp);
  EXPECT_EQ(w.host_by_name("alpha"), h);
  EXPECT_EQ(w.host_name(h), "alpha");
  EXPECT_THROW(w.host_by_name("nope"), ConfigError);
  hp.name = "alpha";
  EXPECT_THROW(w.add_host(hp), LogicError);
}

TEST(World, SteadyStateMessagingStaysWithinTaskInlineBudget) {
  // Two processes ping-ponging through send(): the kernel-side wrappers
  // (delivery, timers, scheduler bursts) must all fit Task's inline buffer,
  // so the Task heap-fallback counter stays flat across the steady state.
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h0 = w.add_host(hp);
  hp.name = "h1";
  const HostId h1 = w.add_host(hp);
  const ProcessId a = w.spawn(h0, "a");
  const ProcessId b = w.spawn(h1, "b");

  struct PingPong {
    World* w;
    ProcessId a, b;
    int remaining;
    void fire(ProcessId from, ProcessId to) {
      if (remaining-- <= 0) return;
      w->send(from, to, Lan::App, ChannelClass::Tcp, microseconds(5),
              [this, from, to] { fire(to, from); });
    }
  };
  PingPong game{&w, a, b, 3000};
  w.post(a, microseconds(1), [&] { game.fire(a, b); });
  w.run_until(SimTime{milliseconds(20).ns});  // warm-up

  const std::uint64_t heap_before = Task::heap_allocations();
  const std::size_t slab_before = w.events().slab_capacity();
  w.run_to_completion();
  EXPECT_EQ(Task::heap_allocations(), heap_before);
  EXPECT_EQ(w.events().slab_capacity(), slab_before);
  EXPECT_LE(game.remaining, 0);  // the chain ran to exhaustion
}

TEST(World, EpochPreventsStaleTimerAfterKill) {
  World w = make_world();
  HostParams hp;
  hp.name = "h0";
  const HostId h = w.add_host(hp);
  const ProcessId p = w.spawn(h, "p");
  int fired = 0;
  w.post(p, microseconds(1), [&] {
    w.timer(p, milliseconds(10), microseconds(1), [&] { ++fired; });
  });
  w.at(SimTime{milliseconds(5).ns}, [&] { w.kill(p); });
  w.run_to_completion();
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace loki::sim
