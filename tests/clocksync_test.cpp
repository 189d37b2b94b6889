#include <gtest/gtest.h>

#include "clocksync/convex_hull.hpp"
#include "clocksync/projection.hpp"
#include "clocksync/sync_data.hpp"
#include "clocksync/sync_phase.hpp"
#include "sim/world.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace loki::clocksync {
namespace {

/// Generate synthetic sync samples between a reference clock (identity) and
/// a target clock C_i(t) = alpha + beta * t, with strictly positive random
/// delays. Ground truth known => the certain-bounds property is testable.
SyncData synthetic_samples(double alpha_ns, double beta, int n, Rng& rng,
                           double min_delay_ns = 20'000,
                           double jitter_ns = 120'000) {
  SyncData out;
  double t = 1e9;  // physical ns
  for (int i = 0; i < n; ++i) {
    // ref -> target
    const double d1 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({"ref", "tgt", LocalTime{static_cast<std::int64_t>(t)},
                   LocalTime{static_cast<std::int64_t>(
                       alpha_ns + beta * (t + d1))}});
    t += 2e6;
    // target -> ref
    const double d2 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({"tgt", "ref",
                   LocalTime{static_cast<std::int64_t>(alpha_ns + beta * t)},
                   LocalTime{static_cast<std::int64_t>(t + d2)}});
    t += 2e6;
  }
  // A second "phase" much later tightens the drift bounds, as in Loki.
  t += 3e9;
  for (int i = 0; i < n; ++i) {
    const double d1 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({"ref", "tgt", LocalTime{static_cast<std::int64_t>(t)},
                   LocalTime{static_cast<std::int64_t>(
                       alpha_ns + beta * (t + d1))}});
    t += 2e6;
    const double d2 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({"tgt", "ref",
                   LocalTime{static_cast<std::int64_t>(alpha_ns + beta * t)},
                   LocalTime{static_cast<std::int64_t>(t + d2)}});
    t += 2e6;
  }
  return out;
}

TEST(ConvexHull, IdentityForReference) {
  const ClockBounds b = identity_bounds();
  EXPECT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(b.alpha_lo, 0.0);
  EXPECT_DOUBLE_EQ(b.beta_hi, 1.0);
}

TEST(ConvexHull, NoSamplesInvalid) {
  EXPECT_FALSE(estimate_bounds({}, "ref", "tgt").valid);
}

// Property: the true (alpha, beta) ALWAYS lies within the computed bounds —
// the guarantee that distinguishes these bounds from confidence intervals
// (§2.5). Parameterized over seeds and clock parameters.
class ConvexHullProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvexHullProperty, TrueParametersAlwaysInsideBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  const double alpha = rng.uniform_real(-5e9, 5e9);
  const double beta = 1.0 + rng.uniform_real(-100e-6, 100e-6);
  const SyncData samples = synthetic_samples(alpha, beta, 25, rng);

  const ClockBounds b = estimate_bounds(samples, "ref", "tgt");
  ASSERT_TRUE(b.valid);
  EXPECT_LE(b.alpha_lo, alpha);
  EXPECT_GE(b.alpha_hi, alpha);
  EXPECT_LE(b.beta_lo, beta);
  EXPECT_GE(b.beta_hi, beta);
  EXPECT_FALSE(b.pinned_beta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvexHullProperty, ::testing::Range(0, 25));

TEST(ConvexHull, BoundsTightenWithMoreSamples) {
  Rng rng(42);
  const double alpha = 2.5e9, beta = 1.00004;
  Rng r1 = rng.split(1), r2 = rng.split(1);
  const ClockBounds few =
      estimate_bounds(synthetic_samples(alpha, beta, 5, r1), "ref", "tgt");
  const ClockBounds many =
      estimate_bounds(synthetic_samples(alpha, beta, 60, r2), "ref", "tgt");
  ASSERT_TRUE(few.valid && many.valid);
  EXPECT_LE(many.alpha_hi - many.alpha_lo, few.alpha_hi - few.alpha_lo);
  EXPECT_LE(many.beta_hi - many.beta_lo, few.beta_hi - few.beta_lo);
}

TEST(ConvexHull, BoundsWidenWithLargerDelays) {
  Rng r1(7), r2(7);
  const double alpha = 1e9, beta = 0.99996;
  const ClockBounds fast = estimate_bounds(
      synthetic_samples(alpha, beta, 30, r1, 20e3, 50e3), "ref", "tgt");
  const ClockBounds slow = estimate_bounds(
      synthetic_samples(alpha, beta, 30, r2, 20e3, 2000e3), "ref", "tgt");
  ASSERT_TRUE(fast.valid && slow.valid);
  EXPECT_LT(fast.alpha_hi - fast.alpha_lo, slow.alpha_hi - slow.alpha_lo);
}

TEST(ConvexHull, OneSidedSamplesArePinned) {
  // Only ref->tgt messages: beta/alpha cannot be bounded from below/above on
  // both sides; the sanity box takes over and the result says so.
  Rng rng(9);
  SyncData samples = synthetic_samples(0.0, 1.0, 20, rng);
  std::erase_if(samples, [](const SyncSample& s) { return s.from == "tgt"; });
  const ClockBounds b = estimate_bounds(samples, "ref", "tgt");
  ASSERT_TRUE(b.valid);
  EXPECT_TRUE(b.pinned_alpha || b.pinned_beta);
}

TEST(Projection, TrueTimeInsideProjectedBounds) {
  Rng rng(11);
  const double alpha = -3e9, beta = 1.00007;
  const SyncData samples = synthetic_samples(alpha, beta, 30, rng);
  const ClockBounds b = estimate_bounds(samples, "ref", "tgt");
  ASSERT_TRUE(b.valid);

  // An event at physical/reference time T reads alpha + beta*T locally.
  for (const double t_ref : {1.2e9, 3.7e9, 8.9e9}) {
    const LocalTime local{static_cast<std::int64_t>(alpha + beta * t_ref)};
    const TimeBounds tb = project_to_reference(local, b);
    EXPECT_LE(tb.lo, t_ref);
    EXPECT_GE(tb.hi, t_ref);
    EXPECT_LT(tb.width(), 1e9);  // and they are useful, not vacuous
  }
}

TEST(Projection, OrderingHelpers) {
  const TimeBounds a{10, 20};
  const TimeBounds b{30, 40};
  EXPECT_TRUE(a.strictly_before(b));
  EXPECT_FALSE(b.strictly_before(a));
  EXPECT_TRUE(a.contains(15));
  EXPECT_DOUBLE_EQ(a.mid(), 15.0);
  EXPECT_DOUBLE_EQ(a.width(), 10.0);
}

TEST(SyncData, TimestampsFileRoundTrip) {
  const SyncData samples = {{"a", "b", LocalTime{123}, LocalTime{456}},
                            {"b", "a", LocalTime{789}, LocalTime{1011}}};
  const SyncData rt = parse_timestamps(serialize_timestamps(samples), "rt");
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt[0].from, "a");
  EXPECT_EQ(rt[1].recv.ns, 1011);
  EXPECT_THROW(parse_timestamps("a b c\n", "short"), loki::ParseError);
}

TEST(AlphaBeta, FileRoundTrip) {
  AlphaBetaFile file;
  file.reference = "ref";
  ClockBounds b;
  b.alpha_lo = -1234.5;
  b.alpha_hi = 987.25;
  b.beta_lo = 0.999999;
  b.beta_hi = 1.000001;
  b.valid = true;
  file.bounds.emplace("tgt", b);
  file.bounds.emplace("ref", identity_bounds());

  const AlphaBetaFile rt = parse_alphabeta(serialize_alphabeta(file), "rt");
  EXPECT_EQ(rt.reference, "ref");
  EXPECT_NEAR(rt.for_host("tgt").alpha_lo, -1234.5, 0.01);
  EXPECT_NEAR(rt.for_host("tgt").beta_hi, 1.000001, 1e-9);
  EXPECT_THROW(rt.for_host("nope"), loki::ConfigError);
}

/// The line number of the ParseError `content` raises, or 0 if it parses.
int alphabeta_error_line(const std::string& content) {
  try {
    parse_alphabeta(content, "ab");
  } catch (const loki::ParseError& e) {
    return e.line();
  }
  return 0;
}

TEST(AlphaBeta, NonFiniteBoundsAreRejected) {
  // from_chars reads nan and inf; a nan bound used to project every event
  // of its host to [nan, nan], which no timeline can sort.
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostA 0 0 1 1\nhostB nan 0 1 1\n"), 3);
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB 0 inf 1 1\n"), 2);
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB 0 0 1 -inf\n"), 2);
}

TEST(AlphaBeta, InvertedBoundsAreRejected) {
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB 5 -5 1 1\n"), 2);
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB 0 0 1.1 0.9\n"), 2);
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB -5 5 0.9 1.1\n"), 0);
}

TEST(AlphaBeta, NonPositiveBetaIsRejected) {
  // beta = 0 used to project every event of its host to [inf, inf].
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB 0 0 0 0\n"), 2);
  EXPECT_EQ(alphabeta_error_line("reference hostA\nhostB 0 0 -1 1\n"), 2);
}

TEST(AlphaBeta, SecondLineForAHostIsRejected) {
  // The map's emplace used to keep the first line and drop the second.
  EXPECT_EQ(alphabeta_error_line(
                "reference hostA\nhostB 0 0 1 1\nhostC 0 0 1 1\nhostB 9 9 1 1\n"),
            4);
}

TEST(SyncPhase, ProducesValidBoundsInsideSimulation) {
  // End to end inside the simulator: drifting clocks, scheduling noise, and
  // the bounds still certainly contain the truth.
  sim::WorldParams wp;
  wp.seed = 77;
  sim::World world(wp);
  Rng clock_rng(5);
  std::vector<sim::HostId> hosts;
  std::vector<sim::ClockParams> truth;
  for (const char* name : {"h0", "h1", "h2"}) {
    sim::HostParams hp;
    hp.name = name;
    hp.clock = sim::HostClock::random_params(clock_rng, milliseconds(4), 80.0, 1000);
    truth.push_back(hp.clock);
    hosts.push_back(world.add_host(hp));
  }

  SyncData samples;
  SyncPhaseParams sp;
  sp.messages_per_pair = 15;
  run_sync_phase(world, hosts, sp, samples);
  // Let drift accumulate between the phases, as between experiment start/end.
  world.run_until(world.now() + seconds(5));
  run_sync_phase(world, hosts, sp, samples);
  EXPECT_EQ(samples.size(), 2u * 15u * 6u);

  // h0 is the reference (identity). Check h1 and h2 bounds contain the true
  // relative parameters: C_i = a_i + b_i*t, C_0 = a_0 + b_0*t =>
  // C_i = (a_i - a_0*b_i/b_0) + (b_i/b_0) * C_0.
  for (int i : {1, 2}) {
    const ClockBounds b = estimate_bounds(samples, "h0", i == 1 ? "h1" : "h2");
    ASSERT_TRUE(b.valid);
    const double beta_true = truth[i].beta / truth[0].beta;
    const double alpha_true = static_cast<double>(truth[i].alpha.ns) -
                              static_cast<double>(truth[0].alpha.ns) * beta_true;
    EXPECT_LE(b.alpha_lo, alpha_true + truth[i].granularity_ns);
    EXPECT_GE(b.alpha_hi, alpha_true - truth[i].granularity_ns);
    EXPECT_LE(b.beta_lo, beta_true + 1e-6);
    EXPECT_GE(b.beta_hi, beta_true - 1e-6);
  }
}

}  // namespace
}  // namespace loki::clocksync
