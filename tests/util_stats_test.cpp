// RunningStats / SampleSet.

#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace acbm::util {
namespace {

TEST(RunningStats, EmptyAccumulatorIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i * 0.1;
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleSet, QuantilesOnKnownData) {
  SampleSet s;
  for (int i = 10; i >= 1; --i) {  // insertion order must not matter
    s.add(i);
  }
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 3.25);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
  SampleSet s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.5);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(SampleSet, EmptyIsZero) {
  const SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.median(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace acbm::util
