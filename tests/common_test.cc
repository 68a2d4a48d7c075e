#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"

namespace ssin {
namespace {

TEST(MeanStdTest, SimpleSample) {
  const MeanStd s = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.std, 2.0);
}

TEST(MeanStdTest, ConstantSampleClampsStd) {
  const MeanStd s = ComputeMeanStd({3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_GT(s.std, 0.0);  // Clamped so standardization never divides by 0.
}

TEST(MeanStdTest, EmptySampleIsNeutral) {
  const MeanStd s = ComputeMeanStd({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.std, 1.0);
}

TEST(PearsonTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1.0}, {2.0}), 0.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  Rng rng(11);
  std::vector<double> values;
  RunningStats running;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    values.push_back(v);
    running.Add(v);
  }
  const MeanStd batch = ComputeMeanStd(values, 0.0);
  EXPECT_NEAR(running.mean(), batch.mean, 1e-10);
  EXPECT_NEAR(running.stddev(), batch.std, 1e-10);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  for (int n : {1, 2, 5, 50}) {
    std::vector<int> perm = rng.Permutation(n);
    std::sort(perm.begin(), perm.end());
    for (int i = 0; i < n; ++i) EXPECT_EQ(perm[i], i);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> sample = rng.SampleWithoutReplacement(30, 10);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (int s : sample) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, 30);
    }
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo = saw_lo || v == 2;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(101);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(1.5, 0.5));
  EXPECT_NEAR(stats.mean(), 1.5, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double first = timer.Seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(timer.Seconds(), first);  // Monotone.
  timer.Reset();
  EXPECT_LE(timer.Seconds(), first + 1.0);
}

TEST(JsonWriterTest, NestedStructureAndCommas) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name");
  json.String("bench");
  json.Key("values");
  json.BeginArray();
  json.Int(1);
  json.Int(2);
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"bench\",\"values\":[1,2,{\"ok\":true}]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  // JSON has no inf/nan tokens; a bench report with an undefined metric
  // (e.g. NSE on constant truth) must still parse.
  JsonWriter json;
  json.BeginArray();
  json.Number(1.5);
  json.Number(std::numeric_limits<double>::quiet_NaN());
  json.Number(std::numeric_limits<double>::infinity());
  json.Number(-std::numeric_limits<double>::infinity());
  json.EndArray();
  EXPECT_EQ(json.str(), "[1.5,null,null,null]");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter json;
  json.String("a \"b\"\\\n\t");
  EXPECT_EQ(json.str(), "\"a \\\"b\\\"\\\\\\n\\t\"");
}

}  // namespace
}  // namespace ssin
