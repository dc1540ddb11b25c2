#include "sketch/gk.h"

#include <algorithm>
#include <cmath>

namespace qlove {
namespace sketch {

GkSummary::GkSummary(double epsilon) : epsilon_(epsilon) {
  if (epsilon_ <= 0.0) epsilon_ = 1e-6;
  if (epsilon_ >= 1.0) epsilon_ = 0.5;
}

void GkSummary::Insert(double value) {
  ++count_;
  // Find the first tuple with a strictly larger value.
  auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), value,
      [](double v, const GkTuple& t) { return v < t.value; });
  GkTuple fresh;
  fresh.value = value;
  fresh.g = 1;
  if (it == tuples_.begin() || it == tuples_.end()) {
    // New minimum or maximum: rank is known exactly.
    fresh.delta = 0;
  } else {
    fresh.delta =
        static_cast<int64_t>(std::floor(2.0 * epsilon_ *
                                        static_cast<double>(count_))) -
        1;
    if (fresh.delta < 0) fresh.delta = 0;
  }
  tuples_.insert(it, fresh);

  const auto interval =
      static_cast<int64_t>(std::floor(1.0 / (2.0 * epsilon_)));
  if (++inserts_since_compress_ >= std::max<int64_t>(1, interval)) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void GkSummary::Compress() {
  if (tuples_.size() < 3) return;
  const double threshold = 2.0 * epsilon_ * static_cast<double>(count_);
  // In-place two-pointer compaction: no allocation on the hot path (this
  // runs every floor(1/(2 epsilon)) inserts).
  size_t write = 0;  // last kept tuple
  // Never merge away the first or last tuple (they pin min/max ranks).
  for (size_t read = 1; read < tuples_.size(); ++read) {
    GkTuple& kept = tuples_[write];
    const GkTuple& next = tuples_[read];
    const bool interior = write > 0 && read + 1 < tuples_.size();
    if (interior && static_cast<double>(kept.g + next.g + next.delta) <
                        threshold) {
      // Absorb kept into next (standard GK merge keeps the larger value).
      const int64_t combined = kept.g + next.g;
      kept = next;
      kept.g = combined;
    } else {
      ++write;
      tuples_[write] = next;
    }
  }
  tuples_.resize(write + 1);
}

Result<double> GkSummary::QueryRank(int64_t rank) const {
  if (count_ == 0) return Status::FailedPrecondition("empty GK summary");
  if (rank < 1 || rank > count_) {
    return Status::OutOfRange("rank outside [1, n]");
  }
  const double slack = epsilon_ * static_cast<double>(count_);
  // Return the last value whose rmax stays within rank + slack.
  int64_t rmin = 0;
  double answer = tuples_.front().value;
  for (const GkTuple& t : tuples_) {
    rmin += t.g;
    const int64_t rmax = rmin + t.delta;
    if (static_cast<double>(rmax) <= static_cast<double>(rank) + slack) {
      answer = t.value;
    } else {
      break;
    }
  }
  return answer;
}

Result<double> GkSummary::QueryQuantile(double phi) const {
  if (phi <= 0.0 || phi > 1.0) {
    return Status::InvalidArgument("phi must lie in (0, 1]");
  }
  const auto rank = static_cast<int64_t>(
      std::ceil(phi * static_cast<double>(count_)));
  return QueryRank(std::max<int64_t>(1, rank));
}

std::vector<std::pair<double, int64_t>> GkSummary::CompressToCapacity(
    int64_t entries) const {
  std::vector<std::pair<double, int64_t>> out;
  if (count_ == 0 || entries <= 0) return out;
  entries = std::min<int64_t>(entries, count_);
  out.reserve(static_cast<size_t>(entries));
  int64_t covered = 0;
  for (int64_t i = 1; i <= entries; ++i) {
    const auto rank = static_cast<int64_t>(std::ceil(
        static_cast<double>(i) * static_cast<double>(count_) /
        static_cast<double>(entries)));
    auto value = QueryRank(std::max<int64_t>(1, rank));
    const int64_t weight = rank - covered;
    covered = rank;
    out.emplace_back(value.ValueOrDie(), weight);
  }
  return out;
}

std::vector<std::pair<double, int64_t>> GkSummary::ExportPointWeights()
    const {
  std::vector<std::pair<double, int64_t>> out;
  out.reserve(tuples_.size());
  int64_t rmin = 0;
  int64_t prev_point = 0;
  for (const GkTuple& t : tuples_) {
    rmin += t.g;
    int64_t point = rmin + t.delta / 2;
    point = std::max(point, prev_point + 1);
    point = std::min(point, count_);
    if (point <= prev_point) continue;  // exhausted the rank space
    out.emplace_back(t.value, point - prev_point);
    prev_point = point;
  }
  // The last tuple always has delta 0 and rmin = count_, so the exported
  // weights normally sum to count_ exactly; clamping can only fall short
  // when duplicate point ranks collapse, in which case the final entry
  // absorbs the remainder.
  if (!out.empty() && prev_point < count_) {
    out.back().second += count_ - prev_point;
  }
  return out;
}

void GkSummary::Reset() {
  count_ = 0;
  inserts_since_compress_ = 0;
  tuples_.clear();
}

}  // namespace sketch
}  // namespace qlove
