#include "engine/backend.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "container/frequency_tree.h"
#include "sketch/cmqs.h"
#include "sketch/gk.h"

namespace qlove {
namespace engine {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kQlove: return "qlove";
    case BackendKind::kGk: return "gk";
    case BackendKind::kCmqs: return "cmqs";
    case BackendKind::kExact: return "exact";
  }
  return "unknown";
}

Result<BackendKind> ParseBackendKind(const std::string& name) {
  for (BackendKind kind : {BackendKind::kQlove, BackendKind::kGk,
                           BackendKind::kCmqs, BackendKind::kExact}) {
    if (name == BackendKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown backend kind: " + name);
}

bool SameBackendConfiguration(const BackendOptions& a,
                              const BackendOptions& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case BackendKind::kQlove:
      return a.qlove == b.qlove;
    case BackendKind::kGk:
    case BackendKind::kCmqs:
      return a.epsilon == b.epsilon;
    case BackendKind::kExact:
      return true;
  }
  return false;
}

Status BackendOptions::Validate(const WindowSpec& shard_window,
                                const std::vector<double>& phis) const {
  switch (kind) {
    case BackendKind::kQlove: {
      const core::QloveOptions& q = qlove;
      if (q.high_quantile_threshold <= 0.0 ||
          q.high_quantile_threshold > 1.0) {
        return Status::InvalidArgument(
            "qlove.high_quantile_threshold must lie in (0, 1]");
      }
      if (q.burst_significance <= 0.0 || q.burst_significance >= 1.0) {
        return Status::InvalidArgument(
            "qlove.burst_significance must lie in (0, 1)");
      }
      if (q.burst_min_superiority < 0.5 || q.burst_min_superiority > 1.0) {
        return Status::InvalidArgument(
            "qlove.burst_min_superiority must lie in [0.5, 1]");
      }
      if (q.enable_fewk) {
        if (q.fewk.ts < 1) {
          return Status::InvalidArgument("qlove.fewk.ts must be >= 1");
        }
        if (q.fewk.samplek_fraction < 0.0 || q.fewk.samplek_fraction > 1.0) {
          return Status::InvalidArgument(
              "qlove.fewk.samplek_fraction must lie in [0, 1]");
        }
        if (q.fewk.topk_fraction > 1.0) {
          return Status::InvalidArgument(
              "qlove.fewk.topk_fraction must not exceed 1");
        }
        // A plan that captures no tail material at all (top-k disabled by
        // the inefficiency rule AND sampling off) can never leave Level-2:
        // the requested few-k machinery cannot work, so fail now rather
        // than silently serving uncorrected high quantiles.
        std::vector<core::FewKPlan> plans;
        core::QloveOperator::BuildFewKLayout(q, phis, shard_window, &plans);
        for (const core::FewKPlan& plan : plans) {
          if (!plan.topk_enabled && plan.ks <= 0) {
            return Status::InvalidArgument(
                "few-k enabled but the plan for phi=" +
                std::to_string(plan.phi) +
                " captures no tail (top-k statistically efficient and "
                "samplek_fraction == 0); raise samplek_fraction, raise "
                "fewk.ts, or disable enable_fewk");
          }
        }
      }
      if (q.enable_error_bounds && q.density_reservoir_capacity <= 0) {
        return Status::InvalidArgument(
            "qlove.density_reservoir_capacity must be > 0 when error "
            "bounds are enabled");
      }
      return Status::OK();
    }
    case BackendKind::kGk:
    case BackendKind::kCmqs:
      if (epsilon <= 0.0 || epsilon >= 1.0) {
        return Status::InvalidArgument("epsilon must lie in (0, 1)");
      }
      // The sketch cannot resolve ranks finer than its epsilon budget: a
      // requested quantile whose tail mass on either side is thinner than
      // epsilon (p99.9 under epsilon=0.02, or symmetrically p0.005) would
      // silently be answered by whatever value tops (or bottoms) the
      // summary. phi = 1.0 (the exact window maximum) is thinner than any
      // epsilon by definition — compressed rank sketches cannot guarantee
      // it (CMQS cells deliberately omit the bucket max); use qlove or
      // exact for max queries. The 1e-12 slack keeps equal-budget configs
      // valid despite binary round-off (1 - 0.999 exceeds 0.001 by an
      // ulp; cf. TailCeilCount).
      for (double phi : phis) {
        if (std::min(phi, 1.0 - phi) + 1e-12 < epsilon) {
          return Status::InvalidArgument(
              std::string(BackendKindName(kind)) +
              " backend cannot resolve phi=" + std::to_string(phi) +
              " within epsilon=" + std::to_string(epsilon) +
              "; lower epsilon below min(phi, 1-phi) or use the qlove "
              "backend");
        }
      }
      return Status::OK();
    case BackendKind::kExact:
      return Status::OK();
  }
  return Status::InvalidArgument("unknown backend kind");
}

namespace {

/// Epoch-aged expiry shared by the sub-window backends: keeps at most \p n
/// epochs in \p epochs and evicts any whose boundary has aged out of the
/// window (time-driven windows slide on empty Ticks too). \p epoch_of
/// reads an element's boundary epoch; \p on_evict releases its state
/// before the pop. One implementation so the backends' window semantics
/// cannot drift apart.
template <typename Epochs, typename GetEpoch, typename OnEvict>
void ExpireOldEpochs(Epochs* epochs, int64_t now, int64_t n,
                     GetEpoch epoch_of, OnEvict on_evict) {
  while (!epochs->empty() &&
         (static_cast<int64_t>(epochs->size()) > n ||
          epoch_of(epochs->front()) <= now - n)) {
    on_evict(epochs->front());
    epochs->pop_front();
  }
}

/// The default backend: the paper operator behind the seam. Its summary
/// carries the raw sub-window summaries so the cross-shard merge keeps the
/// Level-2 weighting and few-k tail corrections in lockstep with the
/// operator (engine/coalesce.cc, engine/query.cc).
class QloveBackend final : public ShardBackend {
 public:
  explicit QloveBackend(const core::QloveOptions& options) : op_(options) {}

  Status Initialize(const WindowSpec& spec,
                    const std::vector<double>& phis) override {
    return op_.Initialize(spec, phis);
  }

  int64_t AddStrided(const double* values, size_t count, size_t offset,
                     size_t stride) override {
    int64_t accepted = 0;
    for (size_t i = offset; i < count; i += stride) {
      // TryAdd's verdict covers both drop reasons (corrupt input AND
      // quantization overflowing to Inf), so this count cannot drift from
      // the pre-quantized batch path's.
      if (op_.TryAdd(values[i])) ++accepted;
    }
    return accepted;
  }

  /// Ring-drain path: values arrived pre-quantized (PreQuantizer), so the
  /// operator's batch entry skips the per-event quantize and per-event
  /// peak-space sampling. Bit-identical state to AddStrided on the same
  /// values (Quantize is idempotent).
  int64_t AddDense(const double* values, size_t count) override {
    return op_.AddQuantizedBatch(values, count);
  }

  const Quantizer* PreQuantizer() const override {
    return op_.quantizer().disabled() ? nullptr : &op_.quantizer();
  }

  void Tick() override { op_.OnSubWindowBoundary(); }

  void SetEpochBase(int64_t epoch) override { op_.SetBoundaryEpoch(epoch); }

  void SummaryInto(BackendSummary* out) const override {
    out->ResetForKind(BackendKind::kQlove);
    const std::deque<core::SubWindowSummary>& live = op_.SubWindowSummaries();
    // resize + element-wise copy (not assign) so a recycled summary's
    // nested quantile/tail buffers keep their capacity across Ticks.
    out->subwindows.resize(live.size());
    size_t i = 0;
    for (const core::SubWindowSummary& sub : live) out->subwindows[i++] = sub;
    out->inflight = op_.InflightCount();
    out->burst_active = op_.BurstActiveInWindow();
  }

  const std::deque<core::SubWindowSummary>* ClosedSubWindows()
      const override {
    return &op_.SubWindowSummaries();
  }

  int64_t InflightCount() const override { return op_.InflightCount(); }

  int64_t ObservedSpaceVariables() const override {
    return op_.ObservedSpaceVariables();
  }

  const char* Name() const override { return "QLOVE"; }

 private:
  core::QloveOperator op_;
};

/// Sub-window GK: one GkSummary per in-flight sub-window, sealed at each
/// Tick into an epoch-stamped midpoint-corrected export (rank error <=
/// epsilon per sub-window, so <= epsilon of the window after pooling).
/// Expiry is by epoch age, matching the engine's time-driven windows: a
/// starved shard's old sub-windows still expire on empty Ticks.
class GkBackend final : public ShardBackend {
 public:
  explicit GkBackend(double epsilon) : epsilon_(epsilon), inflight_(epsilon) {}

  Status Initialize(const WindowSpec& spec,
                    const std::vector<double>& phis) override {
    QLOVE_RETURN_NOT_OK(spec.Validate());
    if (phis.empty()) {
      return Status::InvalidArgument("at least one quantile is required");
    }
    spec_ = spec;
    inflight_ = sketch::GkSummary(epsilon_);
    completed_.clear();
    epoch_ = 0;
    entries_space_ = 0;
    peak_space_ = 0;
    return Status::OK();
  }

  int64_t AddStrided(const double* values, size_t count, size_t offset,
                     size_t stride) override {
    int64_t accepted = 0;
    for (size_t i = offset; i < count; i += stride) {
      if (!core::QloveOperator::Accepts(values[i])) continue;
      inflight_.Insert(values[i]);
      ++accepted;
    }
    NoteSpace();
    return accepted;
  }

  void Tick() override {
    ++epoch_;
    if (inflight_.count() > 0) {
      Epoch sealed;
      sealed.epoch = epoch_;
      sealed.count = inflight_.count();
      sealed.entries = inflight_.ExportPointWeights();
      entries_space_ += static_cast<int64_t>(sealed.entries.size()) * 2;
      completed_.push_back(std::move(sealed));
      inflight_.Reset();
    }
    ExpireOldEpochs(
        &completed_, epoch_, spec_.NumSubWindows(),
        [](const Epoch& sealed) { return sealed.epoch; },
        [this](const Epoch& sealed) {
          entries_space_ -= static_cast<int64_t>(sealed.entries.size()) * 2;
        });
    NoteSpace();
  }

  void SetEpochBase(int64_t epoch) override { epoch_ = epoch; }

  void SummaryInto(BackendSummary* out) const override {
    out->ResetForKind(BackendKind::kGk);
    out->semantics = sketch::RankSemantics::kInterpolated;
    out->rank_error = epsilon_;
    out->entries.clear();
    for (const Epoch& sealed : completed_) {
      out->entries.insert(out->entries.end(), sealed.entries.begin(),
                          sealed.entries.end());
      out->count += sealed.count;
    }
    out->inflight = inflight_.count();
  }

  int64_t InflightCount() const override { return inflight_.count(); }

  int64_t ObservedSpaceVariables() const override { return peak_space_; }

  const char* Name() const override { return "GK"; }

 private:
  struct Epoch {
    int64_t epoch = 0;
    int64_t count = 0;
    std::vector<sketch::WeightedValue> entries;
  };

  void NoteSpace() {
    const int64_t space = inflight_.SpaceVariables() + entries_space_;
    if (space > peak_space_) peak_space_ = space;
  }

  double epsilon_;
  WindowSpec spec_;
  sketch::GkSummary inflight_;
  std::deque<Epoch> completed_;
  int64_t epoch_ = 0;
  int64_t entries_space_ = 0;
  int64_t peak_space_ = 0;
};

/// CMQS behind the seam: the operator's bucketed window machinery is reused
/// verbatim; the summary is its live buckets plus the in-flight GK export
/// (CMQS serves mid-bucket queries from that summary, so inflight = 0).
/// The served window is the intersection of CMQS's own count-based window
/// (last spec.size elements per shard) with the engine's time window (last
/// n Ticks): a per-epoch ingest ledger locates the oldest element still
/// inside the time window, and ExpireBefore retires everything older —
/// so trickle-fed or starved metrics expire on schedule instead of serving
/// arbitrarily old data as current, honoring the Tick contract the other
/// backends uphold.
class CmqsBackend final : public ShardBackend {
 public:
  explicit CmqsBackend(double epsilon)
      : epsilon_(epsilon), op_(sketch::CmqsOptions{epsilon}) {}

  Status Initialize(const WindowSpec& spec,
                    const std::vector<double>& phis) override {
    spec_ = spec;
    epoch_ = 0;
    total_accepted_ = 0;
    accepted_this_epoch_ = 0;
    ledger_.clear();
    return op_.Initialize(spec, phis);
  }

  int64_t AddStrided(const double* values, size_t count, size_t offset,
                     size_t stride) override {
    int64_t accepted = 0;
    for (size_t i = offset; i < count; i += stride) {
      if (!core::QloveOperator::Accepts(values[i])) continue;
      op_.Add(values[i]);
      ++accepted;
    }
    total_accepted_ += accepted;
    accepted_this_epoch_ += accepted;
    return accepted;
  }

  void Tick() override {
    ++epoch_;
    if (accepted_this_epoch_ > 0) {
      ledger_.emplace_back(epoch_, accepted_this_epoch_);
      accepted_this_epoch_ = 0;
    }
    op_.OnSubWindowBoundary();  // CMQS's own count-based expiry
    // Time-driven expiry: whatever was ingested before the surviving
    // ledger epochs is stale no matter how little arrived since.
    ExpireOldEpochs(
        &ledger_, epoch_, spec_.NumSubWindows(),
        [](const auto& entry) { return entry.first; }, [](const auto&) {});
    int64_t live = 0;
    for (const auto& [entry_epoch, count] : ledger_) live += count;
    op_.ExpireBefore(total_accepted_ - live);
  }

  void SetEpochBase(int64_t epoch) override { epoch_ = epoch; }

  void SummaryInto(BackendSummary* out) const override {
    out->ResetForKind(BackendKind::kCmqs);
    out->semantics = sketch::RankSemantics::kInterpolated;
    out->rank_error = epsilon_;
    // ExportWindowEntries builds its vector per call; the move below swaps
    // it into the recycled summary (one export-sized allocation per Tick,
    // none per query — the export walks live buckets, so an in-place
    // variant would drag bucket internals through this seam for little).
    out->entries = op_.ExportWindowEntries();
    for (const auto& [value, weight] : out->entries) {
      out->count += weight;
    }
  }

  /// 0 by contract: the in-flight GK summary already serves mid-bucket
  /// queries and exports inside `entries` (see BackendSummary docs).
  int64_t InflightCount() const override { return 0; }

  int64_t ObservedSpaceVariables() const override {
    return op_.ObservedSpaceVariables();
  }

  const char* Name() const override { return "CMQS"; }

 private:
  double epsilon_;
  sketch::CmqsOperator op_;
  WindowSpec spec_;
  int64_t epoch_ = 0;
  int64_t total_accepted_ = 0;
  int64_t accepted_this_epoch_ = 0;
  /// (epoch, accepted count) for epochs still inside the time window.
  std::deque<std::pair<int64_t, int64_t>> ledger_;
};

/// Oracle mode: the whole per-shard window in a frequency tree, evicted by
/// epoch age like the QLOVE backend (per-epoch raw retention pays for exact
/// deaccumulation — the cost QLOVE's design eliminates, kept here for
/// metrics that must be exact). Values buffer in the in-flight vector and
/// enter the tree at Tick, so queries see whole sub-windows only.
class ExactBackend final : public ShardBackend {
 public:
  Status Initialize(const WindowSpec& spec,
                    const std::vector<double>& phis) override {
    QLOVE_RETURN_NOT_OK(spec.Validate());
    if (phis.empty()) {
      return Status::InvalidArgument("at least one quantile is required");
    }
    spec_ = spec;
    tree_.Clear();
    epochs_.clear();
    inflight_.clear();
    epoch_ = 0;
    retained_ = 0;
    peak_space_ = 0;
    return Status::OK();
  }

  int64_t AddStrided(const double* values, size_t count, size_t offset,
                     size_t stride) override {
    int64_t accepted = 0;
    for (size_t i = offset; i < count; i += stride) {
      if (!core::QloveOperator::Accepts(values[i])) continue;
      inflight_.push_back(values[i]);
      ++accepted;
    }
    NoteSpace();
    return accepted;
  }

  void Tick() override {
    ++epoch_;
    if (!inflight_.empty()) {
      for (double value : inflight_) tree_.Add(value);
      retained_ += static_cast<int64_t>(inflight_.size());
      epochs_.emplace_back(epoch_, std::move(inflight_));
      inflight_ = {};
    }
    ExpireOldEpochs(
        &epochs_, epoch_, spec_.NumSubWindows(),
        [](const auto& sealed) { return sealed.first; },
        [this](const auto& sealed) {
          for (double value : sealed.second) tree_.Remove(value);
          retained_ -= static_cast<int64_t>(sealed.second.size());
        });
    NoteSpace();
  }

  void SetEpochBase(int64_t epoch) override { epoch_ = epoch; }

  void SummaryInto(BackendSummary* out) const override {
    out->ResetForKind(BackendKind::kExact);
    out->semantics = sketch::RankSemantics::kExact;
    out->entries.clear();
    out->entries.reserve(static_cast<size_t>(tree_.UniqueCount()));
    tree_.InOrder([out](double value, int64_t count) {
      out->entries.emplace_back(value, count);
      return true;
    });
    out->count = tree_.TotalCount();
    out->inflight = static_cast<int64_t>(inflight_.size());
  }

  int64_t InflightCount() const override {
    return static_cast<int64_t>(inflight_.size());
  }

  int64_t ObservedSpaceVariables() const override { return peak_space_; }

  const char* Name() const override { return "Exact"; }

 private:
  void NoteSpace() {
    // Tree nodes (2 scalars), the raw per-epoch retention, and the
    // in-flight buffer.
    const int64_t space = tree_.UniqueCount() * 2 + retained_ +
                          static_cast<int64_t>(inflight_.size());
    if (space > peak_space_) peak_space_ = space;
  }

  WindowSpec spec_;
  FrequencyTree tree_;
  std::deque<std::pair<int64_t, std::vector<double>>> epochs_;
  std::vector<double> inflight_;
  int64_t epoch_ = 0;
  int64_t retained_ = 0;
  int64_t peak_space_ = 0;
};

}  // namespace

Result<std::unique_ptr<ShardBackend>> CreateShardBackend(
    const BackendOptions& options, const WindowSpec& spec,
    const std::vector<double>& phis) {
  // Precondition: options passed Validate(spec, phis). The engine validates
  // once per registration (EngineOptions::Validate for the default,
  // RegisterMetric for explicit backends) rather than once per shard here;
  // direct callers should Validate() first. Each backend's Initialize
  // still rejects malformed specs/phis.
  std::unique_ptr<ShardBackend> backend;
  switch (options.kind) {
    case BackendKind::kQlove:
      backend = std::make_unique<QloveBackend>(options.qlove);
      break;
    case BackendKind::kGk:
      backend = std::make_unique<GkBackend>(options.epsilon);
      break;
    case BackendKind::kCmqs:
      backend = std::make_unique<CmqsBackend>(options.epsilon);
      break;
    case BackendKind::kExact:
      backend = std::make_unique<ExactBackend>();
      break;
  }
  if (backend == nullptr) {
    return Status::InvalidArgument("unknown backend kind");
  }
  QLOVE_RETURN_NOT_OK(backend->Initialize(spec, phis));
  return backend;
}

}  // namespace engine
}  // namespace qlove
