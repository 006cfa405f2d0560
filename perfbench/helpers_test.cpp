#include "helpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantilesExclusive) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> xs(10);
  std::iota(xs.begin(), xs.end(), 1.0);
  const Quartiles q = quartiles(xs);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
  const Quartiles q4 = quartiles({5.0, 1.0, 9.0, 3.0});
  EXPECT_DOUBLE_EQ(q4.q1, 1.5);
  EXPECT_DOUBLE_EQ(q4.q3, 8.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: clamped cut
  // points extrapolate.
  const Quartiles q2 = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q2.q1, 0.75);
  EXPECT_DOUBLE_EQ(q2.q3, 2.25);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  // 1..1000: p99 leaves exactly 10 samples above rank 990; p99.9 leaves 1.
  std::vector<double> xs(1000);
  std::iota(xs.begin(), xs.end(), 1.0);
  const Tail t = tail_percentile(xs);
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackToLowerPercentilesOnSmallSamples) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 1.0);
  const Tail t = tail_percentile(xs);  // p99 would leave 1 sample beyond
  EXPECT_DOUBLE_EQ(t.pct, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  const Tail none = tail_percentile({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(none.pct, 0.0);
  EXPECT_EQ(none.samples, 3u);
}

TEST(SelfTime, SubtractsCoveredChildIntervalsOnce) {
  const Interval parent{100, 200};
  EXPECT_EQ(self_time_ns(parent, {}), 100u);
  // Two disjoint children of 10 and 20.
  EXPECT_EQ(self_time_ns(parent, {{110, 120}, {150, 170}}), 70u);
  // Overlapping children are counted once: [110, 140) covers 30.
  EXPECT_EQ(self_time_ns(parent, {{110, 130}, {120, 140}}), 70u);
  // Children sticking out of the parent only count inside it.
  EXPECT_EQ(self_time_ns(parent, {{50, 110}, {190, 260}}), 80u);
  // A child outside the parent does not count at all.
  EXPECT_EQ(self_time_ns(parent, {{300, 400}}), 100u);
  // Fully covered.
  EXPECT_EQ(self_time_ns(parent, {{0, 1000}}), 0u);
}

TEST(ServeCheck, FailsOnAPerturbedResponse) {
  const std::vector<float> want = {0.25f, -1.5f, 3.0f, 0.0f};
  std::vector<float> got = want;
  EXPECT_EQ(bit_mismatches(got, want), 0u);

  got[2] = std::nextafter(got[2], 10.0f);  // one ulp off
  EXPECT_EQ(bit_mismatches(got, want), 1u);

  got = want;
  got[3] = -0.0f;  // equal as floats, different bits
  EXPECT_EQ(bit_mismatches(got, want), 1u);

  got = want;
  got.pop_back();  // a short response is wrong too
  EXPECT_EQ(bit_mismatches(got, want), 1u);
}

TEST(ResultJson, KeepsAllDigitsAndKeysInOrder) {
  Metrics m;
  m["b_ms"] = {1.0 / 3.0, "ms"};
  m["a_s"] = {2.5, "s"};
  EXPECT_EQ(result_json(true, 7, 0, m),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
            "\"metrics\": {\"a_s\": {\"value\": 2.5, \"unit\": \"s\"}, "
            "\"b_ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
}

TEST(ChromeTrace, EmitsCompleteEventsInMicroseconds) {
  const std::string json =
      chrome_trace_json({Span{"bench.infer", 2000, 1500, 1001, 7, 3}});
  EXPECT_NE(json.find("\"name\":\"bench.infer\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2,\"dur\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"id\":7,\"parent\":3"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
