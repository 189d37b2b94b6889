#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"
#include "util/time.hpp"

namespace loki {
namespace {

TEST(Time, SplitJoinRoundTrip) {
  const std::int64_t cases[] = {0,
                                1,
                                -1,
                                1'000'000'007,
                                (std::int64_t{1} << 40) + 12345,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(join_time(split_time(v)), v) << v;
  }
}

TEST(Time, SplitMatchesThesisLayout) {
  // <Time.Hi> is the upper 32 bits, <Time.Lo> the lower 32 (§3.5.6).
  const SplitTime s = split_time((5ll << 32) | 7ll);
  EXPECT_EQ(s.hi, 5u);
  EXPECT_EQ(s.lo, 7u);
}

TEST(Time, DurationArithmetic) {
  EXPECT_EQ((milliseconds(3) + microseconds(500)).ns, 3'500'000);
  EXPECT_EQ((seconds(1) - milliseconds(1)).ns, 999'000'000);
  EXPECT_EQ((milliseconds(2) * 5).ns, 10'000'000);
  EXPECT_DOUBLE_EQ(milliseconds(1500).seconds(), 1.5);
  EXPECT_EQ(millis_f(1.5).ns, 1'500'000);
  EXPECT_EQ(micros_f(2.25).ns, 2'250);
}

TEST(Time, SimTimeOrdering) {
  const SimTime a{100};
  const SimTime b = a + milliseconds(1);
  EXPECT_LT(a, b);
  EXPECT_EQ((b - a).ns, 1'000'000);
}

TEST(Time, FormatDurationUnits) {
  EXPECT_EQ(format_duration(nanoseconds(12)), "12ns");
  EXPECT_EQ(format_duration(microseconds(12)), "12.000us");
  EXPECT_EQ(format_duration(milliseconds(12)), "12.000ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.000s");
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsStableAndIndependent) {
  Rng root(7);
  Rng c1 = root.split("alpha");
  Rng c2 = root.split("alpha");
  Rng c3 = root.split("beta");
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
  EXPECT_EQ(Rng(7).split("alpha").next_u64(), Rng(7).split("alpha").next_u64());
  EXPECT_NE(c1.next_u64(), c3.next_u64());
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.1);
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, SplitWs) {
  const auto v = split_ws("  a \t b  c ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, SplitChar) {
  const auto v = split_char("a,,b", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], "");
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parse_i64("-42").value(), -42);
  EXPECT_FALSE(parse_i64("4x").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_EQ(parse_u32("7").value(), 7u);
  EXPECT_FALSE(parse_u32("-1").has_value());
  EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("2abc").has_value());
  EXPECT_DOUBLE_EQ(parse_f64("2.5").value(), 2.5);
}

TEST(Strings, Identifier) {
  EXPECT_TRUE(is_identifier("black"));
  EXPECT_TRUE(is_identifier("SM_1.a-b"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(TextFile, LogicalLinesStripCommentsAndBlanks) {
  const auto lines = logical_lines("a\n\n# comment\n  b # trailing\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].number, 1);
  EXPECT_EQ(lines[0].text, "a");
  EXPECT_EQ(lines[1].number, 4);
  EXPECT_EQ(lines[1].text, "b");
}

TEST(TextFile, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/loki/file"), ConfigError);
}

TEST(TextFile, WriteReadRoundTrip) {
  const std::string path = testing::TempDir() + "/loki_rt.txt";
  write_file(path, "hello\nworld\n");
  EXPECT_EQ(read_file(path), "hello\nworld\n");
}

TEST(Error, RequireThrowsLogicError) {
  EXPECT_THROW([] { LOKI_REQUIRE(false, "boom"); }(), LogicError);
  EXPECT_NO_THROW([] { LOKI_REQUIRE(true, "fine"); }());
}

TEST(Error, ParseErrorCarriesContext) {
  try {
    throw ParseError("spec.txt", 12, "bad token");
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "spec.txt");
    EXPECT_EQ(e.line(), 12);
    EXPECT_NE(std::string(e.what()).find("spec.txt:12"), std::string::npos);
  }
}

}  // namespace
}  // namespace loki
