#include "container/frequency_tree.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qlove {
namespace {

TEST(FrequencyTreeTest, EmptyTree) {
  FrequencyTree tree;
  EXPECT_EQ(tree.TotalCount(), 0);
  EXPECT_EQ(tree.UniqueCount(), 0);
  EXPECT_FALSE(tree.Min().ok());
  EXPECT_FALSE(tree.Max().ok());
  EXPECT_FALSE(tree.SelectByRank(1).ok());
  EXPECT_EQ(tree.CountOf(1.0), 0);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(FrequencyTreeTest, SingleValue) {
  FrequencyTree tree;
  tree.Add(5.0);
  EXPECT_EQ(tree.TotalCount(), 1);
  EXPECT_EQ(tree.UniqueCount(), 1);
  EXPECT_EQ(tree.Min().ValueOrDie(), 5.0);
  EXPECT_EQ(tree.Max().ValueOrDie(), 5.0);
  EXPECT_EQ(tree.SelectByRank(1).ValueOrDie(), 5.0);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(FrequencyTreeTest, DuplicatesCollapseToOneNode) {
  FrequencyTree tree;
  for (int i = 0; i < 1000; ++i) tree.Add(7.0);
  EXPECT_EQ(tree.TotalCount(), 1000);
  EXPECT_EQ(tree.UniqueCount(), 1);
  EXPECT_EQ(tree.CountOf(7.0), 1000);
  EXPECT_EQ(tree.SelectByRank(1).ValueOrDie(), 7.0);
  EXPECT_EQ(tree.SelectByRank(1000).ValueOrDie(), 7.0);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(FrequencyTreeTest, BulkAddWithMultiplicity) {
  FrequencyTree tree;
  tree.Add(1.0, 10);
  tree.Add(2.0, 5);
  EXPECT_EQ(tree.TotalCount(), 15);
  EXPECT_EQ(tree.SelectByRank(10).ValueOrDie(), 1.0);
  EXPECT_EQ(tree.SelectByRank(11).ValueOrDie(), 2.0);
}

TEST(FrequencyTreeTest, AddNonPositiveCountIsNoOp) {
  FrequencyTree tree;
  tree.Add(1.0, 0);
  tree.Add(1.0, -3);
  EXPECT_EQ(tree.TotalCount(), 0);
}

TEST(FrequencyTreeTest, RemoveDecrementsAndDeletes) {
  FrequencyTree tree;
  tree.Add(3.0, 2);
  EXPECT_EQ(tree.Remove(3.0), 1);
  EXPECT_EQ(tree.TotalCount(), 1);
  EXPECT_EQ(tree.UniqueCount(), 1);
  EXPECT_EQ(tree.Remove(3.0), 1);
  EXPECT_EQ(tree.TotalCount(), 0);
  EXPECT_EQ(tree.UniqueCount(), 0);
  EXPECT_EQ(tree.Remove(3.0), 0);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(FrequencyTreeTest, RemoveAbsentValueReturnsZero) {
  FrequencyTree tree;
  tree.Add(1.0);
  EXPECT_EQ(tree.Remove(2.0), 0);
  EXPECT_EQ(tree.TotalCount(), 1);
}

TEST(FrequencyTreeTest, RemoveClampsToAvailable) {
  FrequencyTree tree;
  tree.Add(1.0, 3);
  EXPECT_EQ(tree.Remove(1.0, 10), 3);
  EXPECT_EQ(tree.TotalCount(), 0);
}

TEST(FrequencyTreeTest, SelectByRankOrderedWalk) {
  FrequencyTree tree;
  const std::vector<double> values = {5, 1, 9, 3, 7, 1, 5, 5};
  for (double v : values) tree.Add(v);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (size_t r = 1; r <= sorted.size(); ++r) {
    EXPECT_EQ(tree.SelectByRank(static_cast<int64_t>(r)).ValueOrDie(),
              sorted[r - 1])
        << "rank " << r;
  }
  EXPECT_FALSE(tree.SelectByRank(0).ok());
  EXPECT_FALSE(tree.SelectByRank(9).ok());
}

TEST(FrequencyTreeTest, CountLessThan) {
  FrequencyTree tree;
  tree.Add(1.0, 2);
  tree.Add(2.0, 3);
  tree.Add(3.0, 1);
  EXPECT_EQ(tree.CountLessThan(0.5), 0);
  EXPECT_EQ(tree.CountLessThan(1.0), 0);
  EXPECT_EQ(tree.CountLessThan(1.5), 2);
  EXPECT_EQ(tree.CountLessThan(2.0), 2);
  EXPECT_EQ(tree.CountLessThan(3.0), 5);
  EXPECT_EQ(tree.CountLessThan(100.0), 6);
}

TEST(FrequencyTreeTest, InOrderVisitsAscendingWithEarlyStop) {
  FrequencyTree tree;
  for (double v : {4.0, 2.0, 6.0, 1.0, 3.0, 5.0, 7.0}) tree.Add(v);
  std::vector<double> seen;
  tree.InOrder([&](double v, int64_t c) {
    EXPECT_EQ(c, 1);
    seen.push_back(v);
    return v < 4.0;  // stop after visiting 4
  });
  EXPECT_EQ(seen, (std::vector<double>{1, 2, 3, 4}));
}

TEST(FrequencyTreeTest, ClearEmptiesTree) {
  FrequencyTree tree;
  for (int i = 0; i < 100; ++i) tree.Add(i);
  tree.Clear();
  EXPECT_EQ(tree.TotalCount(), 0);
  EXPECT_EQ(tree.UniqueCount(), 0);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  tree.Add(5.0);  // usable after Clear
  EXPECT_EQ(tree.TotalCount(), 1);
}

TEST(FrequencyTreeTest, MoveTransfersOwnership) {
  FrequencyTree a;
  for (int i = 0; i < 50; ++i) a.Add(i);
  FrequencyTree b(std::move(a));
  EXPECT_EQ(b.TotalCount(), 50);
  EXPECT_TRUE(b.ValidateInvariants().ok());
  FrequencyTree c;
  c.Add(1.0);
  c = std::move(b);
  EXPECT_EQ(c.TotalCount(), 50);
  EXPECT_TRUE(c.ValidateInvariants().ok());
}

TEST(FrequencyTreeTest, AscendingInsertionStaysBalancedAndValid) {
  FrequencyTree tree;
  for (int i = 0; i < 10000; ++i) tree.Add(i);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(tree.SelectByRank(5000).ValueOrDie(), 4999.0);
}

TEST(FrequencyTreeTest, DescendingInsertionStaysValid) {
  FrequencyTree tree;
  for (int i = 10000; i > 0; --i) tree.Add(i);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(tree.Min().ValueOrDie(), 1.0);
}

// ---------------------------------------------------------------------------
// Property tests: random operation sequences checked against std::multiset.
// ---------------------------------------------------------------------------

struct PropertyCase {
  uint64_t seed;
  int ops;
  int key_range;  // small range -> heavy duplication, like telemetry
};

class FrequencyTreePropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(FrequencyTreePropertyTest, MatchesMultisetReference) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  FrequencyTree tree;
  std::multiset<double> reference;

  for (int op = 0; op < param.ops; ++op) {
    const double key =
        static_cast<double>(rng.UniformInt(param.key_range));
    if (rng.NextDouble() < 0.6 || reference.empty()) {
      tree.Add(key);
      reference.insert(key);
    } else if (rng.NextDouble() < 0.8) {
      const int64_t removed = tree.Remove(key);
      auto it = reference.find(key);
      if (it != reference.end()) {
        EXPECT_EQ(removed, 1);
        reference.erase(it);
      } else {
        EXPECT_EQ(removed, 0);
      }
    } else {
      // Remove a key that definitely exists to exercise deletion paths.
      const size_t skip = rng.UniformInt(reference.size());
      auto it = reference.begin();
      std::advance(it, skip);
      EXPECT_EQ(tree.Remove(*it), 1);
      reference.erase(it);
    }
    if (op % 512 == 0) {
      ASSERT_TRUE(tree.ValidateInvariants().ok()) << "op " << op;
    }
  }

  ASSERT_TRUE(tree.ValidateInvariants().ok());
  ASSERT_EQ(tree.TotalCount(), static_cast<int64_t>(reference.size()));

  // Full rank agreement.
  std::vector<double> sorted(reference.begin(), reference.end());
  const int64_t total = tree.TotalCount();
  for (int64_t r = 1; r <= total; r += std::max<int64_t>(1, total / 257)) {
    EXPECT_EQ(tree.SelectByRank(r).ValueOrDie(),
              sorted[static_cast<size_t>(r - 1)])
        << "rank " << r;
  }
  if (total > 0) {
    EXPECT_EQ(tree.Min().ValueOrDie(), sorted.front());
    EXPECT_EQ(tree.Max().ValueOrDie(), sorted.back());
    EXPECT_EQ(tree.SelectByRank(total).ValueOrDie(), sorted.back());
  }

  // CountLessThan agreement on a key sweep.
  for (int key = 0; key <= param.key_range; key += 3) {
    const auto expected = static_cast<int64_t>(
        std::distance(sorted.begin(),
                      std::lower_bound(sorted.begin(), sorted.end(),
                                       static_cast<double>(key))));
    EXPECT_EQ(tree.CountLessThan(static_cast<double>(key)), expected)
        << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomOps, FrequencyTreePropertyTest,
    ::testing::Values(PropertyCase{1, 4000, 16},      // heavy duplicates
                      PropertyCase{2, 4000, 100000},  // nearly unique
                      PropertyCase{3, 4000, 512},
                      PropertyCase{4, 8000, 64},
                      PropertyCase{5, 8000, 4096},
                      PropertyCase{6, 2000, 2},       // two keys only
                      PropertyCase{7, 6000, 1024},
                      PropertyCase{8, 4000, 33}));

}  // namespace
}  // namespace qlove
