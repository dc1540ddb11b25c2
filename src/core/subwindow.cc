#include "core/subwindow.h"

#include <algorithm>
#include <cmath>

namespace qlove {
namespace core {

size_t InflightCounter::CapacityFor(size_t unique) {
  if (unique == 0) return 0;
  size_t capacity = kMinCapacity;
  while (capacity < unique * 2) capacity *= 2;
  return capacity;
}

void InflightCounter::Allocate(size_t capacity) {
  std::vector<Slot>(capacity).swap(slots_);
  std::vector<size_t>().swap(used_);
  used_.reserve(capacity / 2 + 1);
  int log2 = 0;
  while ((size_t{1} << log2) < capacity) ++log2;
  shift_ = 64 - log2;
}

void InflightCounter::Grow() {
  const std::vector<Slot> old = std::move(slots_);
  const std::vector<size_t> old_used = std::move(used_);
  Allocate(old.size() * 2);
  const size_t mask = slots_.size() - 1;
  for (size_t index : old_used) {
    size_t i = Home(old[index].value);
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = old[index];
    used_.push_back(i);
  }
}

void InflightCounter::SortedRun(ValueRun* run) const {
  run->clear();
  run->reserve(used_.size());
  for (size_t index : used_) {
    run->emplace_back(slots_[index].value, slots_[index].count);
  }
  // Values are distinct, so ordering by value alone is total.
  std::sort(run->begin(), run->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void InflightCounter::Clear() {
  const size_t fit = CapacityFor(used_.size());
  if (used_.size() * 8 < slots_.size() && fit < slots_.size()) {
    Allocate(fit);
    return;
  }
  for (size_t index : used_) slots_[index] = Slot();
  used_.clear();
}

std::vector<std::pair<double, int64_t>> ExtractTopK(const ValueRun& run,
                                                    int64_t kt) {
  std::vector<std::pair<double, int64_t>> top;
  int64_t remaining = kt;
  for (auto it = run.rbegin(); it != run.rend() && remaining > 0; ++it) {
    const int64_t take = std::min(it->second, remaining);
    top.emplace_back(it->first, take);
    remaining -= take;
  }
  return top;
}

std::vector<double> IntervalSampleTop(const ValueRun& run, int64_t tail_size,
                                      int64_t ks) {
  std::vector<double> samples;
  if (tail_size <= 0 || ks <= 0) return samples;
  ks = std::min(ks, tail_size);
  samples.reserve(static_cast<size_t>(ks));

  // Target ranks j * (tail_size / ks) for j = 1..ks, walked in one
  // descending pass (rank 1 = largest value).
  const double interval =
      static_cast<double>(tail_size) / static_cast<double>(ks);
  int64_t next_sample = 1;
  auto target_rank = [&](int64_t j) {
    return static_cast<int64_t>(
        std::llround(static_cast<double>(j) * interval));
  };
  int64_t running = 0;
  for (auto it = run.rbegin(); it != run.rend(); ++it) {
    running += it->second;
    while (next_sample <= ks && running >= target_rank(next_sample)) {
      samples.push_back(it->first);
      ++next_sample;
    }
    if (next_sample > ks || running >= tail_size) break;
  }
  return samples;
}

}  // namespace core
}  // namespace qlove
