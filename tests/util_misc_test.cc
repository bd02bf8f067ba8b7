#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "util/clock.h"
#include "util/histogram.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace drugtree {
namespace util {
namespace {

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nx"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc1"), "ABC1");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_FALSE(EndsWith("ef", "def"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("BLOSUM62", "blosum62"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(10), "10 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(StringUtilTest, Fnv1aStableAndDistinct) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

TEST(SummaryStatsTest, Moments) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.Stddev(), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(SummaryStatsTest, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Stddev(), 0.0);
}

TEST(HistogramTest, BasicPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.Percentile(50), 500, 150);
  EXPECT_NEAR(h.Percentile(99), 990, 250);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.Mean(), 500.5, 1e-9);
}

TEST(HistogramTest, PercentileBoundsClamped) {
  Histogram h;
  h.Add(5);
  h.Add(10);
  EXPECT_GE(h.Percentile(0), 5.0);
  EXPECT_LE(h.Percentile(100), 10.0);
}

TEST(HistogramTest, EmptyPercentileIsZeroAtEveryP) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.0);
}

TEST(HistogramTest, SingleObservationIsEveryPercentile) {
  Histogram h;
  h.Add(42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 42.0);
}

TEST(HistogramTest, PercentileEdgesAreExactMinMax) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  // p0/p100 must be the observed extremes, not bucket-interpolated values.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  // Out-of-range p clamps to the same answers.
  EXPECT_DOUBLE_EQ(h.Percentile(-10), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(150), 100.0);
}

TEST(HistogramTest, SingleBucketMassStaysWithinObservedRange) {
  // 100, 100.5, 101 share one geometric bucket (1.25^20 ~ 86.7 to
  // 1.25^21 ~ 108.4); interpolation must clamp into [min, max].
  Histogram h;
  h.Add(100.0);
  h.Add(100.5);
  h.Add(101.0);
  for (double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, 100.0) << "p=" << p;
    EXPECT_LE(v, 101.0) << "p=" << p;
  }
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(1);
  for (int i = 0; i < 100; ++i) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 1000.0);
}

TEST(HistogramTest, MergeFromEmptyKeepsStats) {
  Histogram a, empty;
  a.Add(2);
  a.Add(8);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  EXPECT_DOUBLE_EQ(a.Mean(), 5.0);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsStats) {
  Histogram empty, b;
  b.Add(3);
  b.Add(9);
  empty.Merge(b);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.min(), 3.0);
  EXPECT_DOUBLE_EQ(empty.max(), 9.0);
  EXPECT_DOUBLE_EQ(empty.Mean(), 6.0);
}

TEST(HistogramTest, MergeBothEmptyStaysEmpty) {
  Histogram a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.Mean(), 0.0);
}

TEST(HistogramTest, ToJsonShape) {
  Histogram h;
  h.Add(1);
  h.Add(3);
  std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":"), std::string::npos) << json;
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(3);
  h.Clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock c(100);
  EXPECT_EQ(c.NowMicros(), 100);
  c.AdvanceMicros(50);
  EXPECT_EQ(c.NowMicros(), 150);
  c.SetMicros(1000);
  EXPECT_EQ(c.NowMicros(), 1000);
}

TEST(ClockTest, TimerMeasuresSimulatedTime) {
  SimulatedClock c;
  Timer t(&c);
  c.AdvanceMicros(250);
  EXPECT_EQ(t.ElapsedMicros(), 250);
  t.Reset();
  EXPECT_EQ(t.ElapsedMicros(), 0);
}

TEST(ClockTest, RealClockMonotonic) {
  RealClock* c = RealClock::Instance();
  int64_t a = c->NowMicros();
  int64_t b = c->NowMicros();
  EXPECT_GE(b, a);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WaitWithNoWork) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

}  // namespace
}  // namespace util
}  // namespace drugtree
