#include "sketch/cmqs.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace qlove {
namespace sketch {

CmqsOperator::CmqsOperator(CmqsOptions options)
    : options_(options), inflight_(options.epsilon / 2.0) {}

Status CmqsOperator::Initialize(const WindowSpec& spec,
                                const std::vector<double>& phis) {
  QLOVE_RETURN_NOT_OK(spec.Validate());
  if (phis.empty()) {
    return Status::InvalidArgument("at least one quantile is required");
  }
  for (double phi : phis) {
    if (phi <= 0.0 || phi > 1.0) {
      return Status::InvalidArgument("phi must lie in (0, 1]");
    }
  }
  if (options_.epsilon <= 0.0 || options_.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must lie in (0, 1)");
  }
  spec_ = spec;
  phis_ = phis;

  // Bucket span: ~eps*N/2 elements, rounded down to a whole number of
  // periods (buckets seal at period boundaries), never less than one
  // period. Wholesale expiry of such a bucket keeps rank staleness within
  // eps*N/2.
  const auto target_periods = static_cast<int64_t>(std::floor(
      options_.epsilon * static_cast<double>(spec.size) /
      (2.0 * static_cast<double>(spec.period))));
  bucket_size_ = spec.period * std::max<int64_t>(1, target_periods);

  // Sketch capacity per bucket: the GK summary size O((1/eps) log(eps B)).
  const double e = options_.epsilon;
  const double cap = (1.0 / (2.0 * e)) *
                     std::log2(std::max(2.0, e * static_cast<double>(
                                                   bucket_size_)));
  bucket_capacity_ = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(cap)), 2, bucket_size_);

  Reset();
  return Status::OK();
}

void CmqsOperator::Add(double value) {
  inflight_.Insert(value);
  raw_.push_back(value);
  ++seen_;
  if (static_cast<int64_t>(raw_.size()) == bucket_size_) SealBucket();
  const int64_t space = CurrentSpace();
  if (space > peak_space_) peak_space_ = space;
}

void CmqsOperator::SealBucket() {
  // Exact equi-rank compression of the completed bucket: entry i holds the
  // bucket element at the midpoint of the i-th rank cell, so every stored
  // rank is exact and the merge's interpolation error stays centered.
  // Deliberately no entry at the bucket maximum: a max entry would smear
  // the bucket's extreme value across a whole cell of merged ranks, and on
  // skewed telemetry that inflates high-quantile answers by orders of
  // magnitude (the rank-vs-value-error effect of §1).
  Bucket bucket;
  bucket.start = raw_start_;
  if (!raw_.empty()) {
    std::sort(raw_.begin(), raw_.end());
    const int64_t total = static_cast<int64_t>(raw_.size());
    const int64_t c = std::min<int64_t>(bucket_capacity_, total);
    bucket.entries.reserve(static_cast<size_t>(c));
    int64_t covered = 0;
    for (int64_t i = 1; i <= c; ++i) {
      const auto edge = static_cast<int64_t>(
          std::ceil(static_cast<double>(i) * static_cast<double>(total) /
                    static_cast<double>(c)));
      const int64_t midpoint = (covered + 1 + edge) / 2;
      bucket.entries.emplace_back(raw_[static_cast<size_t>(midpoint - 1)],
                                  edge - covered);
      covered = edge;
    }
  }
  completed_entries_ += static_cast<int64_t>(bucket.entries.size());
  completed_.push_back(std::move(bucket));
  inflight_.Reset();
  raw_start_ += static_cast<int64_t>(raw_.size());
  raw_.clear();
}

void CmqsOperator::OnSubWindowBoundary() {
  // Buckets seal on their own size schedule (Add); here we only expire
  // content that no longer overlaps the count-based window. The in-flight
  // bucket always lies inside it (it spans < bucket_size <= window size
  // elements), so ExpireBefore's prefix branch is a no-op here.
  ExpireBefore(seen_ - spec_.size);
}

void CmqsOperator::ExpireBefore(int64_t global_index) {
  // Completed buckets always span exactly bucket_size_ elements (they seal
  // when full), so a bucket is stale iff its last element predates the
  // cutoff.
  while (!completed_.empty() &&
         completed_.front().start + bucket_size_ <= global_index) {
    completed_entries_ -=
        static_cast<int64_t>(completed_.front().entries.size());
    completed_.pop_front();
  }
  // The in-flight bucket is append-ordered, so its stale elements are
  // exactly its prefix. GK cannot deaccumulate; rebuild the summary from
  // the surviving suffix (bounded by the bucket span, and only paid when
  // content actually goes stale).
  if (global_index > raw_start_) {
    const int64_t k = std::min<int64_t>(global_index - raw_start_,
                                        static_cast<int64_t>(raw_.size()));
    raw_.erase(raw_.begin(), raw_.begin() + k);
    raw_start_ += k;
    inflight_.Reset();
    for (double value : raw_) inflight_.Insert(value);
  }
}

std::vector<WeightedValue> CmqsOperator::ExportWindowEntries() const {
  std::vector<WeightedValue> entries;
  entries.reserve(static_cast<size_t>(completed_entries_) +
                  static_cast<size_t>(inflight_.TupleCount()));
  for (const Bucket& bucket : completed_) {
    entries.insert(entries.end(), bucket.entries.begin(),
                   bucket.entries.end());
  }
  if (inflight_.count() > 0) {
    const std::vector<WeightedValue> inflight_points =
        inflight_.ExportPointWeights();
    entries.insert(entries.end(), inflight_points.begin(),
                   inflight_points.end());
  }
  return entries;
}

std::vector<double> CmqsOperator::ComputeQuantiles() {
  // All active sketches are combined with a k-way heap merge (each bucket
  // sketch is already sorted); every requested quantile is answered in one
  // ascending pass. Entry semantics: midpoint-valued cells, so the cell
  // containing the target rank answers with a centered half-cell error.
  std::vector<const std::vector<WeightedValue>*> lists;
  lists.reserve(completed_.size() + 1);
  int64_t total = 0;
  for (const Bucket& bucket : completed_) {
    if (!bucket.entries.empty()) lists.push_back(&bucket.entries);
    for (const auto& [value, weight] : bucket.entries) total += weight;
  }
  std::vector<WeightedValue> inflight_points;
  if (inflight_.count() > 0) {
    inflight_points = inflight_.ExportPointWeights();
    lists.push_back(&inflight_points);
    for (const auto& [value, weight] : inflight_points) total += weight;
  }

  std::vector<double> results(phis_.size(), 0.0);
  if (total <= 0) return results;

  // Quantiles in ascending order, mapped back to the caller's order.
  std::vector<size_t> order(phis_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return phis_[a] < phis_[b]; });

  struct Cursor {
    double value;
    size_t list;
    size_t index;
    bool operator>(const Cursor& other) const { return value > other.value; }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> heap;
  for (size_t l = 0; l < lists.size(); ++l) {
    heap.push(Cursor{(*lists[l])[0].first, l, 0});
  }

  size_t next = 0;
  auto rank_of = [&](double phi) {
    auto rank = static_cast<int64_t>(
        std::ceil(phi * static_cast<double>(total)));
    return std::clamp<int64_t>(rank, 1, total);
  };
  int64_t rank = rank_of(phis_[order[next]]);
  int64_t running = 0;
  double last_value = 0.0;
  while (!heap.empty() && next < order.size()) {
    const Cursor cursor = heap.top();
    heap.pop();
    last_value = cursor.value;
    running += (*lists[cursor.list])[cursor.index].second;
    while (next < order.size() && running >= rank) {
      results[order[next]] = cursor.value;
      if (++next < order.size()) rank = rank_of(phis_[order[next]]);
    }
    if (cursor.index + 1 < lists[cursor.list]->size()) {
      heap.push(Cursor{(*lists[cursor.list])[cursor.index + 1].first,
                       cursor.list, cursor.index + 1});
    }
  }
  while (next < order.size()) results[order[next++]] = last_value;
  return results;
}

int64_t CmqsOperator::CurrentSpace() const {
  // Raw in-flight values carry 1 scalar; GK tuples 3; completed entries 2.
  return static_cast<int64_t>(raw_.size()) + inflight_.SpaceVariables() +
         completed_entries_ * 2;
}

int64_t CmqsOperator::AnalyticalSpaceVariables() const {
  // Buckets overlapping the window (plus one sealing), the raw in-flight
  // bucket, and the in-flight GK summary.
  const double e = options_.epsilon / 2.0;
  const double b = static_cast<double>(bucket_size_);
  const double gk_tuples =
      (11.0 / (2.0 * e)) * std::log2(std::max(2.0, 2.0 * e * b));
  const int64_t buckets = spec_.size / bucket_size_ + 1;
  return buckets * bucket_capacity_ * 2 + bucket_size_ +
         static_cast<int64_t>(gk_tuples * 3.0);
}

void CmqsOperator::Reset() {
  inflight_ = GkSummary(options_.epsilon / 2.0);
  raw_.clear();
  raw_start_ = 0;
  seen_ = 0;
  completed_.clear();
  completed_entries_ = 0;
  peak_space_ = 0;
}

}  // namespace sketch
}  // namespace qlove
