#include "container/tree_quantiles.h"

#include <algorithm>
#include <cmath>

namespace qlove {

namespace {

// The phi-ordered rank walk of Algorithm 1, written once for every source
// of ascending (value, count) pairs: \p for_each_pair(visit) calls
// visit(value, count) in ascending value order until visit returns false.
// \p total is the sum of the counts it will visit.
template <typename ForEachPair>
std::vector<double> WalkRanks(int64_t total, const std::vector<double>& phis,
                              ForEachPair&& for_each_pair) {
  if (total == 0 || phis.empty()) return {};

  // Evaluate in ascending phi order (Algorithm 1 line 14), then map results
  // back to the caller's order.
  std::vector<size_t> order(phis.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return phis[a] < phis[b]; });

  auto rank_of = [total](double phi) {
    auto rank = static_cast<int64_t>(
        std::ceil(phi * static_cast<double>(total)));
    return std::clamp<int64_t>(rank, 1, total);
  };

  std::vector<double> results(phis.size(), 0.0);
  size_t next = 0;
  int64_t running = 0;
  int64_t rank = rank_of(phis[order[next]]);
  for_each_pair([&](double value, int64_t count) {
    running += count;
    while (running >= rank) {
      results[order[next]] = value;
      if (++next == order.size()) return false;
      rank = rank_of(phis[order[next]]);
    }
    return true;
  });
  return results;
}

}  // namespace

std::vector<double> MultiQuantileFromRun(const ValueRun& run,
                                         const std::vector<double>& phis) {
  int64_t total = 0;
  for (const auto& pair : run) total += pair.second;
  return WalkRanks(total, phis, [&](auto&& visit) {
    for (const auto& [value, count] : run) {
      if (!visit(value, count)) return;
    }
  });
}

std::vector<double> MultiQuantileFromTree(const FrequencyTree& tree,
                                          const std::vector<double>& phis) {
  return WalkRanks(tree.TotalCount(), phis,
                   [&](auto&& visit) { tree.InOrder(visit); });
}

}  // namespace qlove
