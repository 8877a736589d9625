// Self-tests of the benchmark's sample statistics and request streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "driver/measure.h"
#include "driver/trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileRule, EmptyHasNoPercentile) {
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
  EXPECT_FALSE(SupportedPercentile({}, 50).has_value());
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_FALSE(SupportedPercentile(Ramp(999), 99).has_value());
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  ASSERT_TRUE(SupportedPercentile(Ramp(1000), 99).has_value());
  EXPECT_EQ(*SupportedPercentile(Ramp(1000), 99), 990.0);
}

TEST(PercentileRule, P50NeedsTwentySamples) {
  EXPECT_FALSE(SupportedPercentile(Ramp(19), 50).has_value());
  ASSERT_TRUE(SupportedPercentile(Ramp(20), 50).has_value());
  EXPECT_EQ(*SupportedPercentile(Ramp(20), 50), 10.0);
}

TEST(PercentileRule, P100AndBeyondAreNeverSupported) {
  EXPECT_EQ(SamplesBeyond(100000, 100), 0u);
  EXPECT_FALSE(SupportedPercentile(Ramp(100000), 100).has_value());
}

TEST(PercentileRule, OrderOfSamplesDoesNotMatter) {
  std::vector<double> shuffled = Ramp(2000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(SupportedPercentile(shuffled, 99),
            SupportedPercentile(Ramp(2000), 99));
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Streams, SameSeedSameStreamDifferentSeedDifferentStream) {
  const std::vector<size_t> perm = FixedRankPermutation(5000);
  EXPECT_EQ(ZipfStreams(7, 0, 2, 500, perm, 1.1),
            ZipfStreams(7, 0, 2, 500, perm, 1.1));
  EXPECT_NE(ZipfStreams(7, 0, 2, 500, perm, 1.1),
            ZipfStreams(8, 0, 2, 500, perm, 1.1));
  EXPECT_EQ(ChurnStream(7, 0, 400, 240, 64), ChurnStream(7, 0, 400, 240, 64));
  EXPECT_NE(ChurnStream(7, 0, 400, 240, 64), ChurnStream(8, 0, 400, 240, 64));
  EXPECT_EQ(RoundRobinStreams(7, 2, 226, 226),
            RoundRobinStreams(7, 2, 226, 226));
  EXPECT_NE(RoundRobinStreams(7, 2, 226, 226),
            RoundRobinStreams(8, 2, 226, 226));
  EXPECT_EQ(SamplePositions(7, 1, 1000, 16), SamplePositions(7, 1, 1000, 16));
  EXPECT_NE(SamplePositions(7, 1, 1000, 16), SamplePositions(8, 1, 1000, 16));
}

TEST(Streams, RankPermutationIsFixedAndComplete) {
  const std::vector<size_t> perm = FixedRankPermutation(1000);
  EXPECT_EQ(perm, FixedRankPermutation(1000));
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_NE(perm, sorted);  // ranks are scattered over the ids
}

TEST(Streams, ChurnRotatesThroughDisjointQuarters) {
  const std::vector<size_t> s = ChurnStream(3, 0, 800, 240, 64);
  for (size_t i = 0; i < s.size(); ++i) {
    const size_t phase = 4 * i / s.size();
    EXPECT_GE(s[i], phase * 60);
    EXPECT_LT(s[i], (phase + 1) * 60);
  }
}

TEST(Streams, ChurnPhasesAndCyclesRequestEveryIdEqually) {
  const std::vector<size_t> s = ChurnStream(3, 0, 480, 240, 64);
  for (size_t phase = 0; phase < 4; ++phase) {
    std::vector<size_t> count(240, 0);
    for (size_t i = phase * 120; i < (phase + 1) * 120; ++i) ++count[s[i]];
    for (size_t q = phase * 60; q < (phase + 1) * 60; ++q) {
      EXPECT_EQ(count[q], 2u) << "query " << q;
    }
  }
  const std::vector<size_t> c = CycleStream(3, 1, 250, 100, 64);
  std::vector<size_t> count(100, 0);
  for (size_t q : c) ++count[q];
  for (size_t n : count) EXPECT_TRUE(n == 2 || n == 3);
  EXPECT_EQ(CycleStream(3, 1, 250, 100, 64), c);
  EXPECT_NE(CycleStream(4, 1, 250, 100, 64), c);
}

TEST(Streams, SeedOrdersRequestsWithinABlockOnly) {
  // Blocks of 64 over 1,000 requests; quarters end at 250, 500, 750.
  const std::vector<size_t> a = ChurnStream(3, 0, 1000, 240, 64);
  const std::vector<size_t> b = ChurnStream(4, 0, 1000, 240, 64);
  ASSERT_NE(a, b);
  for (size_t start = 0; start < a.size(); start += 64) {
    const size_t end = std::min(a.size(), start + 64);
    std::multiset<size_t> in_a(a.begin() + start, a.begin() + end);
    std::multiset<size_t> in_b(b.begin() + start, b.begin() + end);
    EXPECT_EQ(in_a, in_b) << "block at " << start;
  }
  const std::vector<size_t> c = CycleStream(3, 1, 256, 240, 64);
  const std::vector<size_t> d = CycleStream(4, 1, 256, 240, 64);
  ASSERT_NE(c, d);
  for (size_t start = 0; start < c.size(); start += 64) {
    EXPECT_EQ(std::multiset<size_t>(c.begin() + start, c.begin() + start + 64),
              std::multiset<size_t>(d.begin() + start, d.begin() + start + 64));
  }
}

TEST(Streams, RoundRobinCoversEveryQueryEqually) {
  const auto streams = RoundRobinStreams(11, 2, 226, 226);
  std::vector<size_t> count(226, 0);
  for (const auto& s : streams) {
    for (size_t q : s) ++count[q];
  }
  for (size_t c : count) EXPECT_EQ(c, 2u);
  EXPECT_DOUBLE_EQ(RepeatShare(streams), 0.5);
}

TEST(Streams, SamplePositionsAreDistinctAscendingAndInRange) {
  const std::vector<size_t> p = SamplePositions(5, 2, 100, 30);
  ASSERT_EQ(p.size(), 30u);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
  EXPECT_EQ(std::set<size_t>(p.begin(), p.end()).size(), 30u);
  EXPECT_LT(p.back(), 100u);
  EXPECT_EQ(SamplePositions(5, 2, 10, 30).size(), 10u);
}

TEST(FastestPerItem, TakesEachItemFromItsFastestRound) {
  const std::vector<std::vector<double>> series = {
      {2.0, 1.0, 5.0}, {1.5, 3.0, 4.0}, {1.5, 1.0, 6.0}};
  std::vector<size_t> fastest_round;
  EXPECT_EQ(FastestPerItem(series, &fastest_round),
            (std::vector<double>{1.5, 1.0, 4.0}));
  // Ties go to the earlier round.
  EXPECT_EQ(fastest_round, (std::vector<size_t>{1, 0, 1}));
}

TEST(FastestPerItem, ShortRoundsAreSkippedAndNoRoundsGiveNothing) {
  EXPECT_EQ(FastestPerItem({{3.0, 3.0}, {1.0}}),
            (std::vector<double>{1.0, 3.0}));
  std::vector<size_t> fastest_round = {7};
  EXPECT_TRUE(FastestPerItem({}, &fastest_round).empty());
  EXPECT_TRUE(fastest_round.empty());
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanBuffer buffer(0);
  {
    ScopedSpan request(&buffer, "request", 1);
    { ScopedSpan child(&buffer, "plan.build", 1); }
    { ScopedSpan child(&buffer, "engine.execute", 1); }
  }
  const auto layers = SummarizeSpans({&buffer});
  ASSERT_EQ(layers.count("request"), 1u);
  const LayerTimes& request = layers.at("request");
  const double children = layers.at("plan.build").total_ms +
                          layers.at("engine.execute").total_ms;
  EXPECT_NEAR(request.self_ms, request.total_ms - children, 1e-9);
  EXPECT_EQ(buffer.spans()[1].parent, 0);
  EXPECT_EQ(buffer.spans()[2].parent, 0);
  EXPECT_EQ(buffer.spans()[0].parent, -1);
}

}  // namespace
}  // namespace perfbench
