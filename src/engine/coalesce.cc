// Copyright 2026 The QLOVE Reproduction Authors

#include "engine/coalesce.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace qlove {
namespace engine {

namespace {

// Population a summary's rank_error is weighted by when pooling: entry
// kinds precompute `count`; qlove derives it from the sub-windows (same
// rule as the aggregator's SummaryPopulation).
int64_t SummaryWeight(const BackendSummary& summary) {
  if (summary.kind != BackendKind::kQlove) return summary.count;
  int64_t total = 0;
  for (const core::SubWindowSummary& sub : summary.subwindows) {
    total += sub.count;
  }
  return total;
}

// Pools pairs of {value, multiplicity} lists into one list sorted
// descending by value, combining equal values' multiplicities. Used for
// both tail top-k lists and weighted entries (the latter re-sorted
// ascending by the caller).
void MergeDescendingPairs(std::vector<std::pair<double, int64_t>>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const std::pair<double, int64_t>& a,
               const std::pair<double, int64_t>& b) {
              return a.first > b.first;
            });
  size_t out = 0;
  for (size_t i = 0; i < pairs->size(); ++i) {
    if (out > 0 && (*pairs)[out - 1].first == (*pairs)[i].first) {
      (*pairs)[out - 1].second += (*pairs)[i].second;
    } else {
      (*pairs)[out++] = (*pairs)[i];
    }
  }
  pairs->resize(out);
}

// True when every member of \p group shares the first member's quantile
// and tail-plan shape (always the case for one metric's shards, which run
// identical options; hand-built summaries may disagree).
bool GroupShapesAgree(
    const std::vector<const core::SubWindowSummary*>& group) {
  for (size_t i = 1; i < group.size(); ++i) {
    if (group[i]->quantiles.size() != group[0]->quantiles.size() ||
        group[i]->tails.size() != group[0]->tails.size()) {
      return false;
    }
  }
  return true;
}

// Merges the same-epoch sub-windows of \p group into one: summed count,
// OR'd burst flag, count-weighted-mean quantiles (the Level-2 estimator,
// so pre-merging commutes with the aggregator's own pooling up to FP
// reassociation), and unioned tail material with no extra truncation.
core::SubWindowSummary MergeSubWindowGroup(
    const std::vector<const core::SubWindowSummary*>& group) {
  core::SubWindowSummary merged;
  merged.epoch = group[0]->epoch;
  merged.quantiles.assign(group[0]->quantiles.size(), 0.0);
  merged.tails.resize(group[0]->tails.size());
  for (const core::SubWindowSummary* sub : group) {
    merged.count += sub->count;
    merged.bursty = merged.bursty || sub->bursty;
  }
  for (size_t q = 0; q < merged.quantiles.size(); ++q) {
    double weighted = 0.0;
    for (const core::SubWindowSummary* sub : group) {
      weighted += static_cast<double>(sub->count) * sub->quantiles[q];
    }
    // Empty sub-windows never emit a summary (core/qlove.cc), so every
    // group member carries count >= 1 and the total is positive.
    merged.quantiles[q] = weighted / static_cast<double>(merged.count);
  }
  for (size_t t = 0; t < merged.tails.size(); ++t) {
    core::TailCapture& tail = merged.tails[t];
    for (const core::SubWindowSummary* sub : group) {
      tail.topk.insert(tail.topk.end(), sub->tails[t].topk.begin(),
                       sub->tails[t].topk.end());
      tail.samples.insert(tail.samples.end(), sub->tails[t].samples.begin(),
                          sub->tails[t].samples.end());
    }
    MergeDescendingPairs(&tail.topk);
    std::sort(tail.samples.begin(), tail.samples.end(),
              [](double a, double b) { return a > b; });
  }
  return merged;
}

void CoalesceQlove(const std::vector<BackendSummary>& shards,
                   BackendSummary* out) {
  std::vector<const core::SubWindowSummary*> subs;
  for (const BackendSummary& shard : shards) {
    for (const core::SubWindowSummary& sub : shard.subwindows) {
      subs.push_back(&sub);
    }
  }
  out->subwindows.clear();
  AppendCoalescedSubWindows(std::move(subs), &out->subwindows);
}

void CoalesceEntries(const std::vector<BackendSummary>& shards,
                     BackendSummary* out) {
  size_t total = 0;
  for (const BackendSummary& shard : shards) total += shard.entries.size();
  out->entries.clear();
  out->entries.reserve(total);
  for (const BackendSummary& shard : shards) {
    out->entries.insert(out->entries.end(), shard.entries.begin(),
                        shard.entries.end());
  }
  // Entry lists are ascending by value; MergeDescendingPairs leaves them
  // descending with equal values' weights combined, so flip back.
  MergeDescendingPairs(&out->entries);
  std::reverse(out->entries.begin(), out->entries.end());
}

}  // namespace

void AppendCoalescedSubWindows(std::vector<const core::SubWindowSummary*> subs,
                               std::vector<core::SubWindowSummary>* out) {
  // Shards tick together (the engine's Tick closes every shard's
  // sub-window under one epoch), so equal epochs cover the same
  // wall-clock sub-window. The stable sort keeps each group in shard order
  // and the output epoch-ascending, matching the per-shard oldest-first
  // invariant.
  std::stable_sort(subs.begin(), subs.end(),
                   [](const core::SubWindowSummary* a,
                      const core::SubWindowSummary* b) {
                     return a->epoch < b->epoch;
                   });
  std::vector<const core::SubWindowSummary*> group;
  for (size_t begin = 0; begin < subs.size();) {
    size_t end = begin + 1;
    while (end < subs.size() && subs[end]->epoch == subs[begin]->epoch) ++end;
    group.assign(subs.begin() + static_cast<ptrdiff_t>(begin),
                 subs.begin() + static_cast<ptrdiff_t>(end));
    if (group.size() == 1) {
      out->push_back(*group[0]);
    } else if (GroupShapesAgree(group)) {
      out->push_back(MergeSubWindowGroup(group));
    } else {
      // Shape disagreement cannot come from one metric's shards; keep the
      // members unmerged (duplicate epochs are legal in a summary — the
      // merge layer pools sub-windows independently) rather than guess
      // which quantile grid wins.
      for (const core::SubWindowSummary* sub : group) out->push_back(*sub);
    }
    begin = end;
  }
}

BackendSummary CoalesceShardSummaries(
    const std::vector<BackendSummary>& shards) {
  if (shards.size() == 1) return shards[0];
  BackendSummary out;
  out.ResetForKind(shards[0].kind);
  out.semantics = shards[0].semantics;
  int64_t weight_total = 0;
  double weighted_rank_error = 0.0;
  for (const BackendSummary& shard : shards) {
    out.count += shard.count;
    out.inflight += shard.inflight;
    out.burst_active = out.burst_active || shard.burst_active;
    const int64_t weight = SummaryWeight(shard);
    weight_total += weight;
    weighted_rank_error += static_cast<double>(weight) * shard.rank_error;
  }
  // Rank errors are fractions of each shard's own population, so the
  // pooled bound is their count-weighted mean (the same rule heterogeneous
  // pooling applies; engine/backend.h). An all-empty export keeps the
  // first shard's documented bound.
  out.rank_error = weight_total > 0
                       ? weighted_rank_error / static_cast<double>(weight_total)
                       : shards[0].rank_error;
  if (out.kind == BackendKind::kQlove) {
    CoalesceQlove(shards, &out);
  } else {
    CoalesceEntries(shards, &out);
  }
  return out;
}

}  // namespace engine
}  // namespace qlove
