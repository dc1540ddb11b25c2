#include "core/qlove.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qlove {
namespace core {

const char* OutcomeSourceName(OutcomeSource source) {
  switch (source) {
    case OutcomeSource::kLevel2: return "Level2";
    case OutcomeSource::kTopK: return "TopK";
    case OutcomeSource::kSampleK: return "SampleK";
    case OutcomeSource::kSketchMerge: return "SketchMerge";
    case OutcomeSource::kPartialFleet: return "PartialFleet";
  }
  return "Unknown";
}

bool SelectFewKOutcome(const FewKPlan& plan,
                       const std::vector<const TailCapture*>& tails,
                       int64_t tail_size, int64_t exact_tail_rank,
                       bool burst_active, double* estimate,
                       OutcomeSource* source) {
  if (burst_active && plan.ks > 0) {
    auto result = MergeSampleK(tails, plan.alpha, tail_size);
    if (result.ok()) {
      *estimate = result.ValueOrDie();
      *source = OutcomeSource::kSampleK;
      return true;
    }
  }
  if (plan.topk_enabled && plan.kt > 0) {
    auto result = MergeTopK(tails, exact_tail_rank);
    if (result.ok()) {
      *estimate = result.ValueOrDie();
      *source = OutcomeSource::kTopK;
      return true;
    }
  }
  return false;
}

void RestoreQuantileMonotonicity(const std::vector<double>& phis,
                                 std::vector<double>* estimates) {
  std::vector<size_t> order(phis.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return phis[a] < phis[b]; });
  double floor_value = -std::numeric_limits<double>::infinity();
  for (size_t idx : order) {
    if ((*estimates)[idx] < floor_value) (*estimates)[idx] = floor_value;
    floor_value = (*estimates)[idx];
  }
}

std::vector<int> QloveOperator::BuildFewKLayout(
    const QloveOptions& options, const std::vector<double>& phis,
    const WindowSpec& spec, std::vector<FewKPlan>* plans) {
  std::vector<int> high_index(phis.size(), -1);
  if (!options.enable_fewk) return high_index;
  for (size_t i = 0; i < phis.size(); ++i) {
    if (phis[i] < options.high_quantile_threshold || phis[i] >= 1.0) {
      continue;
    }
    high_index[i] = static_cast<int>(plans->size());
    plans->push_back(PlanFewK(phis[i], spec.size, spec.period, options.fewk));
  }
  return high_index;
}

QloveOperator::QloveOperator(QloveOptions options)
    : options_(options),
      quantizer_(options.quantizer_digits),
      burst_detector_(options.burst_significance, 4,
                      options.burst_min_superiority),
      density_(options.density_reservoir_capacity) {}

Status QloveOperator::Initialize(const WindowSpec& spec,
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
  if (options_.high_quantile_threshold <= 0.0 ||
      options_.high_quantile_threshold > 1.0) {
    return Status::InvalidArgument(
        "high_quantile_threshold must lie in (0, 1]");
  }
  spec_ = spec;
  phis_ = phis;

  plans_.clear();
  high_index_ = BuildFewKLayout(options_, phis_, spec_, &plans_);
  detection_plan_ = -1;
  double best_phi = -1.0;
  for (size_t i = 0; i < phis_.size(); ++i) {
    if (high_index_[i] < 0) continue;
    const FewKPlan& plan = plans_[static_cast<size_t>(high_index_[i])];
    if (plan.ks > 0 && phis_[i] > best_phi) {
      best_phi = phis_[i];
      detection_plan_ = high_index_[i];
    }
  }
  Reset();
  return Status::OK();
}

void QloveOperator::Reset() {
  inflight_.Clear();
  inflight_count_ = 0;
  boundary_epoch_ = 0;
  summaries_.clear();
  level2_.Reset(phis_.size());
  summaries_space_ = 0;
  prev_burst_sample_.clear();
  density_.Reset();
  last_estimates_.assign(phis_.size(), 0.0);
  last_sources_.assign(phis_.size(), OutcomeSource::kLevel2);
  peak_space_ = 0;
}

void QloveOperator::Add(double value) { (void)TryAdd(value); }

bool QloveOperator::TryAdd(double value) {
  if (!Accepts(value)) return false;  // corrupt telemetry never enters state
  const double quantized = quantizer_.Quantize(value);
  // Quantization can overflow the very top of the double range to +-Inf;
  // corrupt output must not enter the sketch any more than corrupt input
  // (and the pre-quantized batch path applies this same predicate, so the
  // two ingest routes stay bit-identical).
  if (!Accepts(quantized)) return false;
  inflight_.Add(quantized);
  ++inflight_count_;
  if (options_.enable_error_bounds) density_.Observe(quantized);
  const int64_t space = CurrentSpace();
  if (space > peak_space_) peak_space_ = space;
  return true;
}

int64_t QloveOperator::AddQuantizedBatch(const double* values, size_t count) {
  int64_t accepted = 0;
  const bool observe = options_.enable_error_bounds;
  for (size_t i = 0; i < count; ++i) {
    const double quantized = values[i];
    if (!Accepts(quantized)) continue;
    inflight_.Add(quantized);
    ++accepted;
    if (observe) density_.Observe(quantized);
  }
  if (accepted > 0) {
    inflight_count_ += accepted;
    const int64_t space = CurrentSpace();
    if (space > peak_space_) peak_space_ = space;
  }
  return accepted;
}

void QloveOperator::OnSubWindowBoundary() {
  ++boundary_epoch_;  // the window slides even across an empty sub-window
  if (inflight_count_ == 0) {
    // The gap breaks sub-window continuity: the next non-empty sub-window
    // must not be burst-compared against a sample from before the gap
    // (which may even have expired from the window).
    prev_burst_sample_.clear();
    inflight_.Clear();  // an idle sub-window gives the table back
    EvictExpiredSummaries();
    return;
  }

  ValueRun run;
  inflight_.SortedRun(&run);
  SubWindowSummary summary;
  summary.count = inflight_count_;
  summary.epoch = boundary_epoch_;
  summary.quantiles = MultiQuantileFromRun(run, phis_);

  if (!plans_.empty()) {
    summary.tails.resize(plans_.size());
    for (size_t p = 0; p < plans_.size(); ++p) {
      const FewKPlan& plan = plans_[p];
      TailCapture& tail = summary.tails[p];
      if (plan.topk_enabled && plan.kt > 0) {
        tail.topk = ExtractTopK(run, plan.kt);
      }
      if (plan.ks > 0) {
        tail.samples = IntervalSampleTop(run, plan.tail_size, plan.ks);
      }
    }
    if (detection_plan_ >= 0) {
      const std::vector<double>& current =
          summary.tails[static_cast<size_t>(detection_plan_)].samples;
      summary.bursty = burst_detector_.IsBursty(current, prev_burst_sample_);
      prev_burst_sample_ = current;
    }
  }

  level2_.Accumulate(summary.quantiles);
  summaries_space_ += summary.SpaceVariables();
  summaries_.push_back(std::move(summary));
  EvictExpiredSummaries();

  inflight_.Clear();
  inflight_count_ = 0;
  const int64_t space = CurrentSpace();
  if (space > peak_space_) peak_space_ = space;
}

void QloveOperator::EvictExpiredSummaries() {
  // A summary expires when the window holds more than n sub-windows (the
  // count-driven case; epochs are then consecutive, so both conditions
  // coincide) or when its boundary epoch has aged out (time-driven callers
  // with empty sub-windows in between).
  const int64_t n = spec_.NumSubWindows();
  while (!summaries_.empty() &&
         (static_cast<int64_t>(summaries_.size()) > n ||
          summaries_.front().epoch <= boundary_epoch_ - n)) {
    level2_.Deaccumulate(summaries_.front().quantiles);
    summaries_space_ -= summaries_.front().SpaceVariables();
    summaries_.pop_front();
  }
}

bool QloveOperator::BurstActiveInWindow() const {
  for (const SubWindowSummary& summary : summaries_) {
    if (summary.bursty) return true;
  }
  return false;
}

std::vector<double> QloveOperator::ComputeQuantiles() {
  std::vector<double> estimates = level2_.ComputeResult();
  if (estimates.empty()) estimates.assign(phis_.size(), 0.0);
  std::vector<OutcomeSource> sources(phis_.size(), OutcomeSource::kLevel2);

  if (!plans_.empty() && !summaries_.empty()) {
    const bool burst_active = BurstActiveInWindow();
    for (size_t i = 0; i < phis_.size(); ++i) {
      const int plan_index = high_index_[i];
      if (plan_index < 0) continue;
      const FewKPlan& plan = plans_[static_cast<size_t>(plan_index)];
      std::vector<const TailCapture*> tails;
      tails.reserve(summaries_.size());
      for (const SubWindowSummary& summary : summaries_) {
        tails.push_back(&summary.tails[static_cast<size_t>(plan_index)]);
      }
      SelectFewKOutcome(plan, tails, plan.tail_size, plan.exact_tail_rank,
                        burst_active, &estimates[i], &sources[i]);
    }
  }

  RestoreQuantileMonotonicity(phis_, &estimates);

  last_estimates_ = estimates;
  last_sources_ = std::move(sources);
  return estimates;
}

std::vector<double> QloveOperator::ErrorBounds(double alpha) const {
  std::vector<double> bounds(phis_.size(),
                             std::numeric_limits<double>::infinity());
  if (!options_.enable_error_bounds || density_.size() == 0) return bounds;
  for (size_t i = 0; i < phis_.size(); ++i) {
    auto density = density_.DensityAt(last_estimates_[i]);
    if (!density.ok()) continue;
    bounds[i] = TheoremOneBound(phis_[i], level2_.count(), spec_.period,
                                density.ValueOrDie(), alpha);
  }
  return bounds;
}

const FewKPlan* QloveOperator::PlanForQuantile(size_t index) const {
  if (index >= high_index_.size() || high_index_[index] < 0) return nullptr;
  return &plans_[static_cast<size_t>(high_index_[index])];
}

int64_t QloveOperator::CurrentSpace() const {
  return inflight_.UniqueCount() * 2 + summaries_space_ +
         level2_.SpaceVariables() +
         (options_.enable_error_bounds ? density_.size() : 0);
}

int64_t QloveOperator::AnalyticalSpaceVariables() const {
  // l quantile summaries per sub-window plus the worst-case in-flight
  // {value, count} state (§3.2: l(N/P) + O(P)), plus the configured few-k
  // budgets.
  const int64_t n_subwindows = spec_.NumSubWindows();
  int64_t space = static_cast<int64_t>(phis_.size()) * n_subwindows +
                  spec_.period * 2;
  for (const FewKPlan& plan : plans_) {
    space += (plan.kt * 2 + plan.ks) * n_subwindows;
  }
  if (options_.enable_error_bounds) {
    space += options_.density_reservoir_capacity;
  }
  return space;
}

}  // namespace core
}  // namespace qlove
