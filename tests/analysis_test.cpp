#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "analysis/global_timeline.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/verification.hpp"
#include "apps/election.hpp"
#include "apps/kvstore.hpp"
#include "apps/token_ring.hpp"
#include "runtime/experiment.hpp"
#include "runtime/timeline.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace loki::analysis {
namespace {

/// A hand-built two-machine scenario on two hosts with known clock bounds:
/// hostA is the reference (identity); hostB has alpha in [-w, +w], beta = 1.
clocksync::AlphaBetaFile two_host_ab(double width_ns) {
  clocksync::AlphaBetaFile ab;
  ab.reference = "hostA";
  ab.bounds.emplace("hostA", clocksync::identity_bounds());
  clocksync::ClockBounds b;
  b.alpha_lo = -width_ns / 2;
  b.alpha_hi = width_ns / 2;
  b.beta_lo = 1.0;
  b.beta_hi = 1.0;
  b.valid = true;
  ab.bounds.emplace("hostB", b);
  return ab;
}

/// Timeline builder helper.
struct TlBuilder {
  runtime::LocalTimeline tl;

  TlBuilder(const std::string& nick, const std::string& host,
            std::vector<std::string> states, std::vector<std::string> events,
            std::vector<runtime::TimelineFaultEntry> faults = {}) {
    tl.nickname = nick;
    tl.initial_host = host;
    tl.machines = {"m1", "m2"};
    tl.states = std::move(states);
    tl.events = std::move(events);
    tl.faults = std::move(faults);
  }

  TlBuilder& change(std::uint32_t event, std::uint32_t state, std::int64_t t) {
    runtime::TimelineRecord r;
    r.type = runtime::RecordType::StateChange;
    r.event_index = event;
    r.state_index = state;
    r.time = LocalTime{t};
    tl.records.push_back(r);
    return *this;
  }

  TlBuilder& inject(std::uint32_t fault, std::int64_t t) {
    runtime::TimelineRecord r;
    r.type = runtime::RecordType::FaultInjection;
    r.fault_index = fault;
    r.time = LocalTime{t};
    tl.records.push_back(r);
    return *this;
  }

  TlBuilder& restart(const std::string& host, std::int64_t t) {
    runtime::TimelineRecord r;
    r.type = runtime::RecordType::Restart;
    r.host = host;
    r.time = LocalTime{t};
    tl.records.push_back(r);
    return *this;
  }
};

TEST(GlobalTimeline, ProjectsAndSortsEvents) {
  const auto ab = two_host_ab(10'000);  // +-5us
  TlBuilder m1("m1", "hostA", {"S", "T"}, {"e"});
  m1.change(0, 0, 1'000'000).change(0, 1, 3'000'000);
  TlBuilder m2("m2", "hostB", {"S", "T"}, {"e"});
  m2.change(0, 0, 2'000'000);

  const GlobalTimeline gt = build_global_timeline({&m1.tl, &m2.tl}, ab);
  ASSERT_EQ(gt.events.size(), 3u);
  EXPECT_EQ(gt.reference, "hostA");
  // Sorted by midpoint: 1ms (m1), 2ms (m2), 3ms (m1).
  EXPECT_EQ(gt.events[0].machine, "m1");
  EXPECT_EQ(gt.events[1].machine, "m2");
  EXPECT_EQ(gt.events[2].machine, "m1");
  // hostA events are exact; hostB carries the alpha uncertainty.
  EXPECT_DOUBLE_EQ(gt.events[0].when.width(), 0.0);
  EXPECT_NEAR(gt.events[1].when.width(), 10'000.0, 1.0);
  EXPECT_EQ(gt.of_machine("m1").size(), 2u);
}

TEST(GlobalTimeline, RestartSwitchesHostClock) {
  auto ab = two_host_ab(10'000);
  TlBuilder m1("m1", "hostA", {"S", "CRASH"}, {"e", "CRASH"});
  m1.change(0, 0, 1'000'000)
      .restart("hostB", 5'000'000)
      .change(0, 0, 6'000'000);
  const auto events = project_timeline(m1.tl, ab);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].host, "hostA");
  EXPECT_DOUBLE_EQ(events[0].when.width(), 0.0);
  EXPECT_EQ(events[2].host, "hostB");
  EXPECT_NEAR(events[2].when.width(), 10'000.0, 1.0);
}

TEST(GlobalTimeline, SerializeContainsEvents) {
  const auto ab = two_host_ab(0.0);
  TlBuilder m1("m1", "hostA", {"S"}, {"e"},
               {{"f1", "(m1:S)", spec::Trigger::Once}});
  m1.change(0, 0, 1'000'000).inject(0, 1'500'000);
  const GlobalTimeline gt = build_global_timeline({&m1.tl}, ab);
  const std::string text = serialize_global_timeline(gt);
  EXPECT_NE(text.find("STATE_CHANGE"), std::string::npos);
  EXPECT_NE(text.find("FAULT_INJECTION f1"), std::string::npos);
}

// --- verification ------------------------------------------------------------

runtime::TimelineFaultEntry fault_entry(const std::string& name,
                                        const std::string& expr,
                                        spec::Trigger trig = spec::Trigger::Once) {
  return {name, expr, trig};
}

TEST(Verification, SameClockInjectionIsExact) {
  // Injection 1us after the state entry on the SAME clock must be accepted
  // even when the projection bounds are much wider than 1us.
  const auto ab = two_host_ab(1'000'000);  // 1ms wide hostB bounds
  TlBuilder m1("m1", "hostB", {"S", "T"}, {"e"},
               {fault_entry("f1", "(m1:S)")});
  m1.change(0, 0, 1'000'000).inject(0, 1'001'000).change(0, 1, 9'000'000);
  const auto v = verify_experiment({&m1.tl}, ab);
  ASSERT_EQ(v.verdicts.size(), 1u);
  EXPECT_TRUE(v.verdicts[0].correct) << v.verdicts[0].reason;
  EXPECT_TRUE(v.accepted);
}

TEST(Verification, SameClockInjectionOutsideStateRejected) {
  const auto ab = two_host_ab(1'000'000);
  TlBuilder m1("m1", "hostB", {"S", "T"}, {"e"},
               {fault_entry("f1", "(m1:S)", spec::Trigger::Always)});
  m1.change(0, 0, 1'000'000).change(0, 1, 2'000'000).inject(0, 2'500'000);
  const auto v = verify_experiment({&m1.tl}, ab);
  ASSERT_EQ(v.verdicts.size(), 1u);
  EXPECT_FALSE(v.verdicts[0].correct);
  EXPECT_FALSE(v.accepted);
}

TEST(Verification, CrossClockCertainlyInsideAccepted) {
  // m2 (hostB) is in state S from 1ms to 50ms (bounds width 10us); the
  // injection in m1 at 20ms is certainly inside.
  const auto ab = two_host_ab(10'000);
  TlBuilder m1("m1", "hostA", {"S", "T"}, {"e"},
               {fault_entry("f1", "(m2:S)", spec::Trigger::Always)});
  m1.change(0, 1, 500'000).inject(0, 20'000'000);
  TlBuilder m2("m2", "hostB", {"S", "T"}, {"e"});
  m2.change(0, 0, 1'000'000).change(0, 1, 50'000'000);
  const auto v = verify_experiment({&m1.tl, &m2.tl}, ab);
  ASSERT_EQ(v.verdicts.size(), 1u);
  EXPECT_TRUE(v.verdicts[0].correct) << v.verdicts[0].reason;
}

TEST(Verification, CrossClockBoundaryOverlapConservativelyRejected) {
  // Injection at 1.002ms, m2 entered S at 1.000ms on hostB with +-5us
  // bounds: the containment rule cannot certify it -> rejected, even though
  // the true ordering may have been fine (the thesis' conservatism).
  const auto ab = two_host_ab(10'000);
  TlBuilder m1("m1", "hostA", {"S", "T"}, {"e"},
               {fault_entry("f1", "(m2:S)", spec::Trigger::Always)});
  m1.change(0, 1, 500'000).inject(0, 1'002'000);
  TlBuilder m2("m2", "hostB", {"S", "T"}, {"e"});
  m2.change(0, 0, 1'000'000).change(0, 1, 50'000'000);
  const auto v = verify_experiment({&m1.tl, &m2.tl}, ab);
  ASSERT_EQ(v.verdicts.size(), 1u);
  EXPECT_FALSE(v.verdicts[0].correct);
  EXPECT_NE(v.verdicts[0].reason.find("not certainly true"), std::string::npos);
}

TEST(Verification, CompoundExpressionAllTermsChecked) {
  const auto ab = two_host_ab(10'000);
  TlBuilder m1("m1", "hostA", {"S", "T", "CRASH"}, {"e"},
               {fault_entry("f1", "((m1:T) & (m2:S))", spec::Trigger::Always)});
  m1.change(0, 0, 500'000).change(0, 1, 10'000'000).inject(0, 20'000'000);
  TlBuilder m2("m2", "hostB", {"S", "T", "CRASH"}, {"e"});
  m2.change(0, 0, 1'000'000).change(0, 1, 50'000'000);
  const auto v = verify_experiment({&m1.tl, &m2.tl}, ab);
  EXPECT_TRUE(v.verdicts[0].correct) << v.verdicts[0].reason;

  // Negated term: ~(m2:S) while m2 IS in S -> certainly false.
  TlBuilder m1b("m1", "hostA", {"S", "T", "CRASH"}, {"e"},
                {fault_entry("f2", "((m1:T) & ~(m2:S))", spec::Trigger::Always)});
  m1b.change(0, 0, 500'000).change(0, 1, 10'000'000).inject(0, 20'000'000);
  const auto v2 = verify_experiment({&m1b.tl, &m2.tl}, ab);
  EXPECT_FALSE(v2.verdicts[0].correct);
  EXPECT_NE(v2.verdicts[0].reason.find("certainly false"), std::string::npos);
}

TEST(Verification, TerminalStateExtendsToExperimentEnd) {
  // m2 crashes into CRASH and never leaves; an injection long after must
  // still see (m2:CRASH) as certainly true.
  const auto ab = two_host_ab(10'000);
  TlBuilder m1("m1", "hostA", {"S", "CRASH"}, {"e"},
               {fault_entry("f1", "(m2:CRASH)", spec::Trigger::Always)});
  m1.change(0, 0, 500'000).inject(0, 90'000'000);
  TlBuilder m2("m2", "hostB", {"S", "CRASH"}, {"e", "CRASH"});
  m2.change(0, 0, 1'000'000).change(1, 1, 30'000'000);
  const auto v = verify_experiment({&m1.tl, &m2.tl}, ab);
  EXPECT_TRUE(v.verdicts[0].correct) << v.verdicts[0].reason;
}

TEST(Verification, MissedOnceFaultRejectsExperiment) {
  // (m2:S) certainly became true but f1 never fired.
  const auto ab = two_host_ab(10'000);
  TlBuilder m1("m1", "hostA", {"S", "T"}, {"e"}, {fault_entry("f1", "(m2:S)")});
  m1.change(0, 1, 500'000);
  TlBuilder m2("m2", "hostB", {"S", "T"}, {"e"});
  m2.change(0, 0, 1'000'000).change(0, 1, 50'000'000);
  const auto v = verify_experiment({&m1.tl, &m2.tl}, ab);
  EXPECT_TRUE(v.verdicts.empty());
  ASSERT_EQ(v.missed.size(), 1u);
  EXPECT_EQ(v.missed[0].fault, "f1");
  EXPECT_FALSE(v.accepted);

  // Non-strict mode keeps the experiment.
  VerificationOptions lax;
  lax.strict_missed_once = false;
  EXPECT_TRUE(verify_experiment({&m1.tl, &m2.tl}, ab, lax).accepted);
}

TEST(Verification, RestartedMachineOccupanciesSplitAcrossHosts) {
  const auto ab = two_host_ab(10'000);
  // m2 runs on hostB, crashes, restarts on hostA, reaches S again. The
  // injection while the SECOND S occupancy holds must be certified via the
  // hostA segment.
  TlBuilder m1("m1", "hostA", {"S", "T", "CRASH"}, {"e"},
               {fault_entry("f1", "(m2:S)", spec::Trigger::Always)});
  m1.change(0, 1, 500'000).inject(0, 80'000'000);
  TlBuilder m2("m2", "hostB", {"S", "T", "CRASH"}, {"e", "CRASH"});
  m2.change(0, 0, 1'000'000)
      .change(1, 2, 30'000'000)    // CRASH at 30ms
      .restart("hostA", 60'000'000)
      .change(0, 0, 61'000'000);   // S again, stamped by hostA now
  const auto v = verify_experiment({&m1.tl, &m2.tl}, ab);
  ASSERT_EQ(v.verdicts.size(), 1u);
  EXPECT_TRUE(v.verdicts[0].correct) << v.verdicts[0].reason;
}

TEST(Verification, OutOfRangeIndicesStillThrow) {
  // The verifier reads no event names, yet a record naming a state, event
  // or fault the timeline does not list is as malformed as ever.
  const auto ab = two_host_ab(10'000);
  const auto machine = [] {
    return TlBuilder("m1", "hostA", {"S", "T"}, {"e"},
                     {fault_entry("f1", "(m1:S)", spec::Trigger::Always)});
  };
  TlBuilder bad_state = machine();
  bad_state.change(0, 0, 1'000'000).change(0, 2, 2'000'000);
  TlBuilder bad_event = machine();
  bad_event.change(0, 0, 1'000'000).change(1, 1, 2'000'000);
  TlBuilder bad_fault = machine();
  bad_fault.change(0, 0, 1'000'000).inject(1, 1'500'000);
  for (const TlBuilder* b : {&bad_state, &bad_event, &bad_fault}) {
    EXPECT_THROW(verify_experiment({&b->tl}, ab), LogicError);
    EXPECT_THROW(build_global_timeline({&b->tl}, ab), LogicError);
  }
}

TEST(Verification, VerdictSerialization) {
  VerificationResult v;
  v.verdicts.push_back({"m1", "f1", 0, true, ""});
  v.verdicts.push_back({"m1", "f2", 1, false, "late"});
  v.missed.push_back({"m2", "f3"});
  const std::string text = serialize_verdicts(v);
  EXPECT_NE(text.find("m1 f1 0 correct"), std::string::npos);
  EXPECT_NE(text.find("m1 f2 1 incorrect # late"), std::string::npos);
  EXPECT_NE(text.find("missed m2 f3"), std::string::npos);
}

// --- golden: the analysis of fixed experiments, bit for bit ------------------

/// Feeds one SHA-256 with length-prefixed fields, so no two field sequences
/// hash alike.
struct FieldHasher {
  util::Sha256 sha;

  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    sha.update(b, sizeof b);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    sha.update(s.data(), s.size());
  }
};

void hash_analysis(FieldHasher& h, const ExperimentAnalysis& a) {
  h.str(a.alphabeta.reference);
  h.u64(a.alphabeta.bounds.size());
  for (const auto& [host, b] : a.alphabeta.bounds) {
    h.str(host);
    h.f64(b.alpha_lo);
    h.f64(b.alpha_hi);
    h.f64(b.beta_lo);
    h.f64(b.beta_hi);
    h.u64(b.valid);
    h.u64(b.pinned_alpha);
    h.u64(b.pinned_beta);
  }
  h.str(a.timeline.reference);
  h.u64(a.timeline.events.size());
  for (const GlobalEvent& e : a.timeline.events) {
    h.str(e.machine);
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.str(e.state);
    h.str(e.event);
    h.str(e.fault);
    h.str(e.host);
    h.u64(static_cast<std::uint64_t>(e.local.ns));
    h.f64(e.when.lo);
    h.f64(e.when.hi);
  }
  h.str(serialize_verdicts(a.verification));
  h.u64(a.verification.missed.size());
  for (const MissedFault& m : a.verification.missed) {
    h.str(m.machine);
    h.str(m.fault);
  }
  h.u64(a.verification.all_injections_correct);
  h.u64(a.verification.accepted);
  h.u64(a.accepted);
}

const std::vector<std::string> kGoldenHosts = {"hostA", "hostB", "hostC"};

runtime::ExperimentParams golden_election(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  app.fault_activation_prob = 0.85;
  return apps::election_experiment(
      seed, kGoldenHosts,
      {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
}

runtime::NodeConfig& node_named(runtime::ExperimentParams& p,
                                const std::string& nick) {
  for (runtime::NodeConfig& n : p.nodes)
    if (n.nickname == nick) return n;
  throw std::logic_error("no node " + nick);
}

/// About 30 experiments shaped like the campaign benchmark's studies: the
/// Chapter 5 election faults (`xfault1 ... always` on the faulty machine,
/// gfault2 ... once on green), election with restarts onto the next host
/// (RESTART records switch the stamping clock), the discard-heavy kvstore
/// study and the record-heavy token ring.
std::vector<runtime::ExperimentParams> golden_experiments() {
  std::vector<runtime::ExperimentParams> out;
  const char* machines[3] = {"black", "green", "yellow"};
  for (std::uint64_t k = 0; k < 9; ++k) {
    const std::string machine = machines[k % 3];
    auto p = golden_election(10'000 + k);
    runtime::NodeConfig& node = node_named(p, machine);
    node.fault_spec = spec::parse_fault_spec(
        machine.substr(0, 1) + "fault1 (" + machine + ":LEAD) always\n", "golden");
    node.restart.enabled = k % 2 == 0;
    node.restart.delay = milliseconds(60);
    node.restart.max_restarts = 2;
    out.push_back(std::move(p));
  }
  for (std::uint64_t k = 0; k < 6; ++k) {
    auto p = golden_election(40'000 + k);
    node_named(p, "black").fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "golden");
    node_named(p, "green").fault_spec = spec::parse_fault_spec(
        "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
        "golden");
    out.push_back(std::move(p));
  }
  // Seeds in which black leads, crashes on bfault1 and is restarted once
  // or twice, each time on the next host.
  for (const std::uint64_t seed : {10'001, 10'004, 10'017, 10'028, 10'033, 10'034}) {
    auto p = golden_election(seed);
    runtime::NodeConfig& black = node_named(p, "black");
    black.fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "golden");
    black.restart.enabled = true;
    black.restart.delay = milliseconds(60);
    black.restart.max_restarts = 2;
    black.restart.placement = runtime::RestartPolicy::Placement::NextHost;
    node_named(p, "green").fault_spec = spec::parse_fault_spec(
        "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
        "golden");
    out.push_back(std::move(p));
  }
  for (std::uint64_t k = 12; k < 18; ++k) {
    apps::KvStoreParams app;
    app.initial_primary = "kv1";
    app.run_for = milliseconds(500);
    auto p = apps::kvstore_experiment(
        60'000 + k, kGoldenHosts,
        {{"kv1", "hostA"}, {"kv2", "hostB"}, {"kv3", "hostC"}}, app);
    node_named(p, "kv2").fault_spec = spec::parse_fault_spec(
        "f ((kv1:REPLICATING) & (kv2:BACKUP)) once\n", "golden");
    out.push_back(std::move(p));
  }
  for (std::uint64_t k = 0; k < 4; ++k) {
    apps::TokenRingParams app;
    app.run_for = milliseconds(400);
    auto p = apps::token_ring_experiment(
        70'000 + k, kGoldenHosts,
        {{"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}}, app);
    node_named(p, "n3").fault_spec =
        spec::parse_fault_spec("duplicate_token (n1:CRITICAL) once\n", "golden");
    out.push_back(std::move(p));
  }
  return out;
}

TEST(AnalysisGolden, DigestUnchanged) {
  // One SHA-256 over everything the analysis of 31 fixed experiments
  // produces: every ClockBounds field's bits, every GlobalEvent in order,
  // the verdicts, the missed list and the accept flags. Recorded before the
  // shared projection walk replaced the per-consumer loops; any drift in
  // bounds, projection, event order or verdicts changes it.
  FieldHasher h;
  std::size_t restarts_elsewhere = 0;
  std::size_t injections = 0;
  std::size_t incorrect = 0;
  std::size_t missed = 0;
  std::size_t records = 0;
  for (const runtime::ExperimentParams& p : golden_experiments()) {
    const runtime::ExperimentResult result = runtime::run_experiment(p);
    for (const runtime::LocalTimeline& tl : result.timelines) {
      records += tl.records.size();
      for (const runtime::TimelineRecord& r : tl.records)
        if (r.type == runtime::RecordType::Restart && r.host != tl.initial_host)
          ++restarts_elsewhere;
    }
    const ExperimentAnalysis a = analyze_experiment(result);
    for (const InjectionVerdict& v : a.verification.verdicts) {
      ++injections;
      if (!v.correct) ++incorrect;
    }
    missed += a.verification.missed.size();
    hash_analysis(h, a);
  }
  // The corpus exercises what the digest guards.
  EXPECT_GT(restarts_elsewhere, 0u);
  EXPECT_GT(injections, incorrect);
  EXPECT_GT(incorrect, 0u);
  std::printf("records %zu, injections %zu (incorrect %zu), missed %zu, "
              "restarts onto another host %zu\n",
              records, injections, incorrect, missed, restarts_elsewhere);

  const auto digest = h.sha.finish();
  std::string hex;
  for (const std::uint8_t b : digest) {
    static const char* kHex = "0123456789abcdef";
    hex.push_back(kHex[b >> 4]);
    hex.push_back(kHex[b & 0xf]);
  }
  EXPECT_EQ(hex, "f738e7a656053282a96c3fa8a10131fa3bef96a6793f226f428ae1eee0ae99e7");
}

}  // namespace
}  // namespace loki::analysis
