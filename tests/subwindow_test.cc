#include "core/subwindow.h"

#include <vector>

#include <gtest/gtest.h>

namespace qlove {
namespace core {
namespace {

ValueRun MakeRun(const std::vector<double>& values) {
  InflightCounter counter;
  for (double v : values) counter.Add(v);
  ValueRun run;
  counter.SortedRun(&run);
  return run;
}

TEST(ExtractTopKTest, DescendingWithMultiplicity) {
  auto run = MakeRun({10, 20, 20, 30, 5});
  auto top = ExtractTopK(run, 3);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (std::pair<double, int64_t>{30.0, 1}));
  EXPECT_EQ(top[1], (std::pair<double, int64_t>{20.0, 2}));
}

TEST(ExtractTopKTest, ZeroBudgetIsEmpty) {
  auto run = MakeRun({1, 2, 3});
  EXPECT_TRUE(ExtractTopK(run, 0).empty());
}

TEST(IntervalSampleTest, FullRateKeepsEverything) {
  auto run = MakeRun({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  auto samples = IntervalSampleTop(run, 4, 4);  // alpha = 1
  EXPECT_EQ(samples, (std::vector<double>{10, 9, 8, 7}));
}

TEST(IntervalSampleTest, HalfRatePicksEverySecond) {
  auto run = MakeRun({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  // tail = 8 largest = {10..3}; ks = 4 -> interval 2 -> ranks 2,4,6,8.
  auto samples = IntervalSampleTop(run, 8, 4);
  EXPECT_EQ(samples, (std::vector<double>{9, 7, 5, 3}));
}

TEST(IntervalSampleTest, DuplicatesCountedByRank) {
  const ValueRun run = {{50.0, 4}, {100.0, 4}};
  // tail = 4 -> the four copies of 100; ks = 2 -> ranks 2 and 4, both 100.
  auto samples = IntervalSampleTop(run, 4, 2);
  EXPECT_EQ(samples, (std::vector<double>{100, 100}));
}

TEST(IntervalSampleTest, KsLargerThanTailClamps) {
  auto run = MakeRun({1, 2, 3});
  auto samples = IntervalSampleTop(run, 2, 10);
  EXPECT_EQ(samples, (std::vector<double>{3, 2}));
}

TEST(IntervalSampleTest, EmptyBudgets) {
  auto run = MakeRun({1, 2, 3});
  EXPECT_TRUE(IntervalSampleTop(run, 0, 4).empty());
  EXPECT_TRUE(IntervalSampleTop(run, 4, 0).empty());
}

TEST(SubWindowSummaryTest, SpaceAccounting) {
  SubWindowSummary summary;
  summary.quantiles = {1.0, 2.0, 3.0};
  summary.count = 10;
  TailCapture tail;
  tail.topk = {{5.0, 1}, {4.0, 2}};
  tail.samples = {5.0, 4.0, 3.0};
  summary.tails.push_back(tail);
  // 3 quantiles + count + epoch + 2 topk pairs * 2 + 3 samples = 12.
  EXPECT_EQ(summary.SpaceVariables(), 12);
}

}  // namespace
}  // namespace core
}  // namespace qlove
