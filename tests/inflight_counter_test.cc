// Differential tests for QLOVE's Level-1 in-flight counter: every sub-window
// is fed to an InflightCounter and to a FrequencyTree, and everything the
// boundary reads from the counter's sorted run — the (value, count) pairs
// themselves, the quantiles, the top-k list and the interval samples — must
// match the tree bit for bit.

#include "core/subwindow.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "container/frequency_tree.h"
#include "container/tree_quantiles.h"
#include "core/qlove.h"
#include "workload/generators.h"

namespace qlove {
namespace core {
namespace {

#ifdef QLOVE_LONG_PROPERTY_TESTS
constexpr int kTrialMultiplier = 10;
#else
constexpr int kTrialMultiplier = 1;
#endif

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Bitwise comparison, so -0.0 vs +0.0 (equal under ==) still differs.
void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void ExpectSamePairs(const ValueRun& got, const ValueRun& want,
                     const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i].first), Bits(want[i].first))
        << what << "[" << i << "]: " << got[i].first << " vs "
        << want[i].first;
    EXPECT_EQ(got[i].second, want[i].second) << what << "[" << i << "]";
  }
}

ValueRun TreePairs(const FrequencyTree& tree) {
  ValueRun pairs;
  tree.InOrder([&](double value, int64_t count) {
    pairs.emplace_back(value, count);
    return true;
  });
  return pairs;
}

// The tree's k largest elements, clipped to k in total, descending.
ValueRun TreeLargestK(const FrequencyTree& tree, int64_t k) {
  ValueRun ascending = TreePairs(tree);
  ValueRun top;
  int64_t remaining = k;
  for (auto it = ascending.rbegin(); it != ascending.rend() && remaining > 0;
       ++it) {
    const int64_t take = std::min(it->second, remaining);
    top.emplace_back(it->first, take);
    remaining -= take;
  }
  return top;
}

// Interval samples by expanding the tree into a descending multiset and
// reading ranks round(j * tail / ks), j = 1..min(ks, tail).
std::vector<double> TreeIntervalSamples(const FrequencyTree& tree,
                                        int64_t tail_size, int64_t ks) {
  std::vector<double> samples;
  if (tail_size <= 0 || ks <= 0) return samples;
  std::vector<double> descending;
  for (const auto& [value, count] : TreePairs(tree)) {
    descending.insert(descending.end(), static_cast<size_t>(count), value);
  }
  std::reverse(descending.begin(), descending.end());
  ks = std::min(ks, tail_size);
  const double interval =
      static_cast<double>(tail_size) / static_cast<double>(ks);
  for (int64_t j = 1; j <= ks; ++j) {
    const auto rank = static_cast<int64_t>(
        std::llround(static_cast<double>(j) * interval));
    if (rank > static_cast<int64_t>(descending.size())) break;
    samples.push_back(descending[static_cast<size_t>(rank - 1)]);
  }
  return samples;
}

const std::vector<double> kPhis = {0.999, 0.01, 0.1,  0.25, 0.5,
                                   0.75,  0.9,  0.99, 1.0};

// Feeds one sub-window to \p counter and a fresh tree, compares everything
// the boundary reads, then clears the counter for the next sub-window.
void CheckSubWindow(InflightCounter* counter,
                    const std::vector<double>& values) {
  FrequencyTree tree;
  for (double v : values) {
    counter->Add(v);
    tree.Add(v);
  }
  EXPECT_EQ(counter->UniqueCount(), tree.UniqueCount());
  ValueRun run;
  counter->SortedRun(&run);
  ExpectSamePairs(run, TreePairs(tree), "pairs");
  ExpectSameBits(MultiQuantileFromRun(run, kPhis),
                 MultiQuantileFromTree(tree, kPhis), "quantiles");

  const int64_t total = tree.TotalCount();
  for (int64_t kt : {int64_t{0}, int64_t{1}, int64_t{7}, total / 3 + 1,
                     total + 10}) {
    ExpectSamePairs(ExtractTopK(run, kt), TreeLargestK(tree, kt), "topk");
  }
  const int64_t tails[][2] = {{total / 100 + 1, 10}, {50, 7},   {3, 3},
                              {total, total + 5},    {total, 1}, {1, 4}};
  for (const auto& tail : tails) {
    ExpectSameBits(IntervalSampleTop(run, tail[0], tail[1]),
                   TreeIntervalSamples(tree, tail[0], tail[1]), "samples");
  }
  counter->Clear();
  EXPECT_EQ(counter->UniqueCount(), 0);
}

TEST(InflightCounterTest, RandomDuplicateHeavyStreams) {
  InflightCounter counter;
  for (uint64_t seed = 1; seed <= 4 * kTrialMultiplier; ++seed) {
    Rng rng(seed);
    const Quantizer quantizer(3);
    for (int sub = 0; sub < 6; ++sub) {
      std::vector<double> values;
      for (int i = 0; i < 4000; ++i) {
        values.push_back(quantizer.Quantize(rng.LogNormal(6.7, 0.35)));
      }
      SCOPED_TRACE(testing::Message() << "seed " << seed << " sub " << sub);
      CheckSubWindow(&counter, values);
    }
  }
}

TEST(InflightCounterTest, AllOneValueAndSingleValue) {
  InflightCounter counter;
  CheckSubWindow(&counter, std::vector<double>(1000, 42.5));
  CheckSubWindow(&counter, {-7.0});
  CheckSubWindow(&counter, {0.0});
}

TEST(InflightCounterTest, NegativesZerosSubnormalsAndHugeValues) {
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const double max = std::numeric_limits<double>::max();
  InflightCounter counter;
  std::vector<double> values = {-1.5,      -0.0,           0.0,  -1e300,
                                subnormal, -subnormal,     1e12, 3.5e15,
                                max,       -max,           -0.0, 2.0,
                                1e12,      subnormal * 3,  0.0,  -1.5};
  CheckSubWindow(&counter, values);
  // The first zero seen is the one kept, whichever sign it has.
  CheckSubWindow(&counter, {0.0, -0.0, -0.0, 1.0});
  CheckSubWindow(&counter, {-0.0, 0.0, 0.0, 1.0});
  ValueRun run;
  counter.Add(-0.0);
  counter.Add(0.0);
  counter.SortedRun(&run);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_TRUE(std::signbit(run[0].first));
  EXPECT_EQ(run[0].second, 2);
  counter.Clear();
}

TEST(InflightCounterTest, QuantizerDisabledEveryValueUnique) {
  Rng rng(9);
  InflightCounter counter;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Uniform(-1e6, 1e6));
  CheckSubWindow(&counter, values);
}

TEST(InflightCounterTest, GrowsInsideASubWindow) {
  InflightCounter counter;
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back((i * 7919) % 2003 + 0.25);
  for (double v : values) counter.Add(v);
  EXPECT_EQ(counter.UniqueCount(), 2003);
  EXPECT_GE(counter.Capacity(), 2 * 2003u);
  counter.Clear();
  CheckSubWindow(&counter, values);  // and again on the grown table
}

TEST(InflightCounterTest, EmptyBoundaries) {
  InflightCounter counter;
  ValueRun run = {{1.0, 1}};
  counter.SortedRun(&run);
  EXPECT_TRUE(run.empty());
  EXPECT_TRUE(MultiQuantileFromRun(run, kPhis).empty());
  EXPECT_TRUE(ExtractTopK(run, 5).empty());
  EXPECT_TRUE(IntervalSampleTop(run, 5, 5).empty());
  counter.Clear();
  EXPECT_EQ(counter.Capacity(), 0u);
  CheckSubWindow(&counter, {3.0, 1.0, 3.0});
  counter.Clear();  // an empty boundary after a non-empty one
  CheckSubWindow(&counter, {2.0});
}

TEST(InflightCounterTest, ManySubWindowsReuseOneTable) {
  Rng rng(21);
  InflightCounter counter;
  for (int sub = 0; sub < 200 * kTrialMultiplier; ++sub) {
    std::vector<double> values;
    const int n = 1 + static_cast<int>(rng.UniformInt(300));
    const uint64_t range = 1 + rng.UniformInt(64);
    for (int i = 0; i < n; ++i) {
      values.push_back(static_cast<double>(rng.UniformInt(range)) - 20.0);
    }
    SCOPED_TRACE(testing::Message() << "sub " << sub);
    CheckSubWindow(&counter, values);
  }
}

TEST(InflightCounterTest, SixteenValuesFitTheStartingTable) {
  InflightCounter counter;
  for (int i = 0; i < 64; ++i) counter.Add(100.0 + i % 16);
  EXPECT_EQ(counter.Capacity(), InflightCounter::kMinCapacity);
  counter.Add(5.0);  // the 17th value grows it
  EXPECT_GT(counter.Capacity(), InflightCounter::kMinCapacity);
}

TEST(InflightCounterTest, CapacityComesBackDownAfterABurst) {
  InflightCounter counter;
  for (int i = 0; i < 100000; ++i) counter.Add(i * 0.5);
  const size_t burst = counter.Capacity();
  EXPECT_GE(burst, 200000u);
  counter.Clear();  // the burst filled its table: kept
  EXPECT_EQ(counter.Capacity(), burst);
  for (int i = 0; i < 40; ++i) counter.Add(i % 10);
  counter.Clear();  // 10 values in a 256k table: shrinks
  EXPECT_EQ(counter.Capacity(), InflightCounter::kMinCapacity);
  for (int sub = 0; sub < 3; ++sub) {
    for (int i = 0; i < 800; ++i) counter.Add(i);
    counter.Clear();  // steady sub-windows neither grow nor shrink it
    EXPECT_EQ(counter.Capacity(), 2048u);
  }
  counter.Clear();  // an empty sub-window gives the table back
  EXPECT_EQ(counter.Capacity(), 0u);
}

// FNV-1a over every field of the summaries, doubles by bit pattern.
uint64_t SummaryDigest(const std::deque<SubWindowSummary>& summaries) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const SubWindowSummary& summary : summaries) {
    mix(static_cast<uint64_t>(summary.count));
    mix(static_cast<uint64_t>(summary.epoch));
    mix(summary.bursty ? 1 : 0);
    for (double q : summary.quantiles) mix(Bits(q));
    for (const TailCapture& tail : summary.tails) {
      for (const auto& [value, count] : tail.topk) {
        mix(Bits(value));
        mix(static_cast<uint64_t>(count));
      }
      for (double v : tail.samples) mix(Bits(v));
    }
  }
  return hash;
}

struct PinnedRun {
  int quantizer_digits;
  int64_t observed_space;
  uint64_t digest;
  std::vector<double> last_quantiles;
};

// The numbers the red-black-tree Level 1 produced on this stream; the flat
// counter must reproduce them exactly (space keeps the paper's unique x 2
// in-flight definition).
TEST(InflightCounterTest, OperatorMatchesPinnedTreeOutput) {
  const PinnedRun pinned[] = {
      {3, 3918, 0x952cc099d4709c87ull, {801, 1260, 1980, 3650}},
      {0, 4764, 0x552e2def22aecb2full, {801, 1261, 1981, 3651}}};
  for (const PinnedRun& pin : pinned) {
    QloveOptions options;
    options.quantizer_digits = pin.quantizer_digits;
    QloveOperator op(options);
    ASSERT_TRUE(
        op.Initialize(WindowSpec(40000, 4000), {0.5, 0.9, 0.99, 0.999}).ok());
    workload::NetMonGenerator generator(7);
    for (int i = 1; i <= 100000; ++i) {
      op.Add(generator.Next());
      if (i % 4000 == 0) op.OnSubWindowBoundary();
    }
    const auto& summaries = op.SubWindowSummaries();
    SCOPED_TRACE(testing::Message() << "digits " << pin.quantizer_digits);
    EXPECT_EQ(op.ObservedSpaceVariables(), pin.observed_space);
    ASSERT_EQ(summaries.size(), 10u);
    EXPECT_EQ(std::count_if(summaries.begin(), summaries.end(),
                            [](const auto& s) { return s.bursty; }),
              1);
    EXPECT_EQ(SummaryDigest(summaries), pin.digest);
    EXPECT_EQ(summaries.back().quantiles, pin.last_quantiles);
  }
}

}  // namespace
}  // namespace core
}  // namespace qlove
