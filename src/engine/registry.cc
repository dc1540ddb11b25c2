#include "engine/registry.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>

#include "engine/coalesce.h"
#include "engine/query.h"

namespace qlove {
namespace engine {

namespace {

constexpr size_t kInitialTableCapacity = 64;
constexpr size_t kSlotNotFound = static_cast<size_t>(-1);

// Metadata accounting heuristic: the node itself, its key's tag id heap,
// and graveyard/name-index bookkeeping slack.
size_t NodeBytes(const MetricKey& key) {
  return sizeof(void*) * 10 + key.tag_count() * 8 + 48;
}

}  // namespace

Status MetricState::Initialize(MetricKey key, int num_shards,
                               const MetricOptions& options,
                               size_t ring_capacity,
                               Introspection* introspection) {
  if (num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be > 0");
  }
  key_ = std::move(key);
  options_ = options;
  introspection_ = introspection;
  shards_.clear();
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    QLOVE_RETURN_NOT_OK(shard->Initialize(options_.backend,
                                          options_.shard_window,
                                          options_.phis, ring_capacity,
                                          introspection));
    shards_.push_back(std::move(shard));
  }
  // Every shard runs the same backend configuration, so shard 0's
  // pre-quantizer speaks for the metric.
  pre_quantizer_ = shards_.front()->pre_quantizer();
  // Seed the memory estimate so never-ticked metrics still count against
  // the engine budget (CloseSubWindows refreshes it each boundary).
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += static_cast<size_t>(shard->ObservedSpaceVariables()) * 8 +
             shard->RingCapacity() * 16;
  }
  shard_bytes_ = bytes;
  memory_bytes_.store(bytes, std::memory_order_relaxed);
  export_window_.ResetForKind(options_.backend.kind);
  return Status::OK();
}

int64_t MetricState::TotalAdded() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->TotalAdded();
  }
  return total;
}

int64_t MetricState::TotalAddedApprox() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->TotalAddedApprox();
  }
  return total;
}

void MetricState::CloseSubWindows() {
  // Serialized against Resolved/VisitExportWindow so a concurrent query or
  // export never observes a torn epoch (some shards ticked, some not).
  std::lock_guard<std::mutex> lock(epoch_mu_);
  size_t bytes = 0;
  closed_counts_ = Shard::LiveCounts();
  for (auto& shard : shards_) {
    Shard::LiveCounts live;
    bytes += static_cast<size_t>(shard->CloseSubWindow(&live)) * 8 +
             shard->RingCapacity() * 16;
    closed_counts_.inflight += live.inflight;
    closed_counts_.total_added += live.total_added;
  }
  shard_bytes_ = bytes;
  memory_bytes_.store(
      bytes + window_bytes_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  // Idleness: the boundary just drained every ring, so the approx total is
  // momentarily exact; unchanged since the last boundary means no Record
  // touched this metric in between.
  const int64_t total = TotalAddedApprox();
  if (total == last_activity_.load(std::memory_order_relaxed)) {
    idle_windows_.fetch_add(1, std::memory_order_relaxed);
  } else {
    last_activity_.store(total, std::memory_order_relaxed);
    idle_windows_.store(0, std::memory_order_relaxed);
  }
  tick_epochs_.fetch_add(1, std::memory_order_relaxed);
  // Age the restore overlay exactly as the crashed window would have aged:
  // qlove sub-windows expire once their epoch falls out of the n-epoch
  // window (mirroring QloveOperator::EvictExpiredSummaries, with the live
  // epoch continuing from the recovered base), entry-kind payloads are
  // window-scoped and drop wholesale after n boundaries.
  if (overlay_active_) {
    ++overlay_closes_;
    const int64_t n = options_.shard_window.NumSubWindows();
    if (overlay_.kind == BackendKind::kQlove) {
      const int64_t now = overlay_base_epoch_ + overlay_closes_;
      auto& subs = overlay_.subwindows;
      size_t drop = 0;
      while (drop < subs.size() && subs[drop].epoch <= now - n) ++drop;
      if (drop > 0) {
        if (overlay_.count != 0) {
          for (size_t i = 0; i < drop; ++i) overlay_.count -= subs[i].count;
        }
        subs.erase(subs.begin(), subs.begin() + static_cast<ptrdiff_t>(drop));
      }
      if (subs.empty()) overlay_active_ = false;
    } else if (overlay_closes_ >= n) {
      overlay_active_ = false;
    }
    if (!overlay_active_) overlay_ = BackendSummary();
  }
}

namespace {

// A shard view with no window content at all (its in-flight count is
// not window content). Only consulted while a restore overlay is live:
// dropping such views keeps a freshly recovered metric's export a single
// summary — bit-identical to the pre-crash export for every backend
// kind — instead of a merge of the overlay with empty shards (entry-kind
// merges combine equal values, changing bytes).
bool ViewIsEmpty(const BackendSummary& view) {
  return view.count == 0 && !view.burst_active && view.subwindows.empty() &&
         view.entries.empty();
}

}  // namespace

int64_t MetricState::RefreshExportWindowLocked(bool as_of_tick) const {
  Shard::LiveCounts counts = closed_counts_;
  if (!as_of_tick) {
    counts = Shard::LiveCounts();
    for (const auto& shard : shards_) {
      const Shard::LiveCounts live = shard->DrainLiveCounts();
      counts.inflight += live.inflight;
      counts.total_added += live.total_added;
    }
  }
  const int64_t epoch = tick_epochs_.load(std::memory_order_relaxed);
  // A CMQS window also moves between boundaries: its open bucket exports
  // inside `entries`, so every newly accepted value stales it.
  if (window_epoch_ != epoch ||
      (options_.backend.kind == BackendKind::kCmqs &&
       counts.total_added != window_accepted_)) {
    UpdateExportWindowLocked(epoch);
    window_accepted_ = counts.total_added;
  }
  return counts.inflight;
}

void MetricState::UpdateExportWindowLocked(int64_t epoch) const {
  if (options_.backend.kind == BackendKind::kQlove) {
    // Trim the sub-windows that left every shard (and the restore
    // overlay's, on the schedule CloseSubWindows ages the overlay by),
    // then merge in the ones closed since the last update.
    auto& subs = export_window_.subwindows;
    const int64_t horizon = epoch - options_.shard_window.NumSubWindows();
    size_t drop = 0;
    while (drop < subs.size() && subs[drop].epoch <= horizon) ++drop;
    subs.erase(subs.begin(), subs.begin() + static_cast<ptrdiff_t>(drop));
    if (shards_.size() == 1) {
      // One shard's sub-windows are already coalesced (one per epoch):
      // copy them straight into the window.
      shards_[0]->CopySubWindowsAfter(window_epoch_, &subs);
    } else {
      std::vector<core::SubWindowSummary> fresh;
      for (const auto& shard : shards_) {
        shard->CopySubWindowsAfter(window_epoch_, &fresh);
      }
      std::vector<const core::SubWindowSummary*> group(fresh.size());
      for (size_t i = 0; i < fresh.size(); ++i) group[i] = &fresh[i];
      AppendCoalescedSubWindows(std::move(group), &subs);
    }
  } else {
    std::vector<BackendSummary> views(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->SnapshotInto(&views[s]);
    }
    if (overlay_active_) {
      views.erase(std::remove_if(views.begin(), views.end(), ViewIsEmpty),
                  views.end());
      views.push_back(overlay_);
    }
    export_window_ = CoalesceShardSummaries(views);
  }
  window_epoch_ = epoch;
  NoteExportWindowLocked();
}

void MetricState::NoteExportWindowLocked() const {
  // Queries in flight keep their shared_ptr to the previous copy; the
  // next Resolved() copies the window afresh.
  resolved_.reset();
  if (export_window_.kind == BackendKind::kQlove) {
    export_window_.burst_active = std::any_of(
        export_window_.subwindows.begin(), export_window_.subwindows.end(),
        [](const core::SubWindowSummary& sub) { return sub.bursty; });
  }
  const size_t bytes =
      static_cast<size_t>(export_window_.SpaceVariables()) * 8;
  window_bytes_.store(bytes, std::memory_order_relaxed);
  memory_bytes_.store(shard_bytes_ + bytes, std::memory_order_relaxed);
}

int64_t MetricState::LiveInflightCount() const {
  int64_t inflight = 0;
  for (const auto& shard : shards_) {
    inflight += shard->InflightCount();
  }
  return inflight;
}

std::shared_ptr<const ResolvedWindow> MetricState::Resolved() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  // Between boundaries only a CMQS window moves, so any other kind skips
  // the S-shard drain while its window is current.
  if (options_.backend.kind == BackendKind::kCmqs ||
      window_epoch_ != tick_epochs_.load(std::memory_order_relaxed)) {
    RefreshExportWindowLocked();
  }
  if (resolved_ == nullptr) {
    resolved_ = std::make_shared<const ResolvedWindow>(export_window_,
                                                       options_);
  }
  return resolved_;
}

void MetricState::RestoreSummary(BackendSummary summary, int64_t base_epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  for (auto& shard : shards_) shard->SetEpochBase(base_epoch);
  summary.inflight = 0;  // pre-crash in-flight values were never durable
  overlay_ = std::move(summary);
  overlay_base_epoch_ = base_epoch;
  overlay_closes_ = 0;
  overlay_active_ = overlay_.kind == BackendKind::kQlove
                        ? !overlay_.subwindows.empty()
                        : !overlay_.entries.empty();
  if (!overlay_active_) overlay_ = BackendSummary();
  if (options_.backend.kind == BackendKind::kQlove) {
    // The overlay's sub-windows seed the export window; live sub-windows
    // (epochs above base_epoch) are merged in behind them, and the
    // window's epoch trim ages them out.
    export_window_.ResetForKind(BackendKind::kQlove);
    export_window_.subwindows = overlay_.subwindows;
    window_epoch_ = base_epoch;
    NoteExportWindowLocked();
  }
  // The metric has (logically) seen base_epoch boundaries already; a zero
  // epoch count would make exports skip it as never-ticked.
  tick_epochs_.store(base_epoch, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry::MetricRegistry() {
  auto table = MakeTable(kInitialTableCapacity);
  approx_bytes_.fetch_add(
      sizeof(Table) + table->capacity * sizeof(std::atomic<Node*>),
      std::memory_order_relaxed);
  table_.store(table.get(), std::memory_order_release);
  tables_.push_back(std::move(table));
}

std::unique_ptr<MetricRegistry::Table> MetricRegistry::MakeTable(
    size_t capacity) {
  auto table = std::make_unique<Table>();
  table->capacity = capacity;
  table->mask = capacity - 1;
  table->slots.reset(new std::atomic<Node*>[capacity]);
  for (size_t i = 0; i < capacity; ++i) {
    table->slots[i].store(nullptr, std::memory_order_relaxed);
  }
  return table;
}

std::shared_ptr<MetricState> MetricRegistry::Find(const MetricKey& key) const {
  // The Record hot path: no mutex, no allocation. The acquire loads pair
  // with the writers' release stores, so a visible node's key/state fields
  // (and, transitively, its interned strings) are fully constructed.
  const Table* table = table_.load(std::memory_order_acquire);
  const size_t hash = key.hash();
  size_t index = hash & table->mask;
  for (;;) {
    const Node* node = table->slots[index].load(std::memory_order_acquire);
    if (node == nullptr) return nullptr;  // probe chains end at empty slots
    if (node->hash == hash && node->key == key) {
      return node->state.lock();  // null for tombstones (evicted keys)
    }
    index = (index + 1) & table->mask;
  }
}

size_t MetricRegistry::FindSlotLocked(const MetricKey& key) const {
  const Table* table = table_.load(std::memory_order_relaxed);
  const size_t hash = key.hash();
  size_t index = hash & table->mask;
  for (;;) {
    const Node* node = table->slots[index].load(std::memory_order_relaxed);
    if (node == nullptr) return kSlotNotFound;
    if (node->hash == hash && node->key == key) return index;
    index = (index + 1) & table->mask;
  }
}

void MetricRegistry::InsertLocked(std::unique_ptr<Node> node) {
  Table* table = table_.load(std::memory_order_relaxed);
  if ((table->used + 1) * 10 >= table->capacity * 7) {
    // Rebuild at 2x the live count (tombstones are dropped, so a registry
    // that churned through mass evictions re-compacts here). The old table
    // stays alive for readers mid-probe; new slots are filled with relaxed
    // stores, then the table pointer itself is release-published.
    const size_t live = live_count_.load(std::memory_order_relaxed);
    size_t capacity = kInitialTableCapacity;
    while (capacity < (live + 1) * 2) capacity <<= 1;
    auto grown = MakeTable(capacity);
    for (size_t i = 0; i < table->capacity; ++i) {
      Node* existing = table->slots[i].load(std::memory_order_relaxed);
      if (existing == nullptr || existing->state.expired()) continue;
      size_t index = existing->hash & grown->mask;
      while (grown->slots[index].load(std::memory_order_relaxed) != nullptr) {
        index = (index + 1) & grown->mask;
      }
      grown->slots[index].store(existing, std::memory_order_relaxed);
      ++grown->used;
    }
    approx_bytes_.fetch_add(
        sizeof(Table) + grown->capacity * sizeof(std::atomic<Node*>),
        std::memory_order_relaxed);
    table = grown.get();
    table_.store(table, std::memory_order_release);
    tables_.push_back(std::move(grown));
  }
  size_t index = node->hash & table->mask;
  size_t first_dead = kSlotNotFound;
  for (;;) {
    Node* existing = table->slots[index].load(std::memory_order_relaxed);
    if (existing == nullptr) break;
    if (existing->hash == node->hash && existing->key == node->key) {
      // Same key: re-registration over a tombstone, or a degrade
      // replacement — the new node takes the slot in place.
      table->slots[index].store(node.get(), std::memory_order_release);
      nodes_.push_back(std::move(node));
      return;
    }
    if (first_dead == kSlotNotFound && existing->state.expired()) {
      first_dead = index;  // reusable tombstone of a different key
    }
    index = (index + 1) & table->mask;
  }
  if (first_dead != kSlotNotFound) {
    index = first_dead;  // slot already counted in used
  } else {
    ++table->used;
  }
  table->slots[index].store(node.get(), std::memory_order_release);
  nodes_.push_back(std::move(node));
}

Result<std::shared_ptr<MetricState>> MetricRegistry::GetOrCreate(
    const MetricKey& key, int num_shards, const MetricOptions& options,
    size_t ring_capacity, Introspection* introspection) {
  if (auto existing = Find(key)) return existing;
  // Build outside the exclusive section; shard initialization allocates.
  auto state = std::make_shared<MetricState>();
  QLOVE_RETURN_NOT_OK(state->Initialize(key, num_shards, options,
                                        ring_capacity, introspection));
  std::lock_guard<std::mutex> lock(mu_);
  if (size_t slot = FindSlotLocked(key); slot != kSlotNotFound) {
    Table* table = table_.load(std::memory_order_relaxed);
    Node* node = table->slots[slot].load(std::memory_order_relaxed);
    if (auto winner = node->state.lock()) {
      return winner;  // race loser adopts the winner's state
    }
  }
  auto node = std::make_unique<Node>();
  node->hash = key.hash();
  node->key = key;
  node->state = state;
  approx_bytes_.fetch_add(NodeBytes(key), std::memory_order_relaxed);
  InsertLocked(std::move(node));
  by_name_[key.name_id()].push_back(state);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  return state;
}

bool MetricRegistry::Evict(const MetricKey& key,
                           const std::shared_ptr<MetricState>& expected) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t slot = FindSlotLocked(key);
  if (slot == kSlotNotFound) return false;
  Table* table = table_.load(std::memory_order_relaxed);
  Node* node = table->slots[slot].load(std::memory_order_relaxed);
  auto state = node->state.lock();
  if (state == nullptr) return false;  // already a tombstone
  if (expected != nullptr && state != expected) return false;
  auto tombstone = std::make_unique<Node>();
  tombstone->hash = node->hash;
  tombstone->key = node->key;
  table->slots[slot].store(tombstone.get(), std::memory_order_release);
  approx_bytes_.fetch_add(NodeBytes(key), std::memory_order_relaxed);
  nodes_.push_back(std::move(tombstone));
  auto it = by_name_.find(key.name_id());
  if (it != by_name_.end()) {
    auto& states = it->second;
    for (size_t i = 0; i < states.size(); ++i) {
      if (states[i] == state) {
        states[i] = std::move(states.back());
        states.pop_back();
        break;
      }
    }
    if (states.empty()) by_name_.erase(it);
  }
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  return true;
}

Result<std::shared_ptr<MetricState>> MetricRegistry::Replace(
    const MetricKey& key, int num_shards, const MetricOptions& options,
    size_t ring_capacity, Introspection* introspection) {
  auto fresh = std::make_shared<MetricState>();
  QLOVE_RETURN_NOT_OK(fresh->Initialize(key, num_shards, options,
                                        ring_capacity, introspection));
  std::lock_guard<std::mutex> lock(mu_);
  const size_t slot = FindSlotLocked(key);
  if (slot == kSlotNotFound) {
    return Status::NotFound("Replace: metric not registered");
  }
  Table* table = table_.load(std::memory_order_relaxed);
  Node* node = table->slots[slot].load(std::memory_order_relaxed);
  auto old_state = node->state.lock();
  if (old_state == nullptr) {
    return Status::NotFound("Replace: metric already evicted");
  }
  auto replacement = std::make_unique<Node>();
  replacement->hash = node->hash;
  replacement->key = node->key;
  replacement->state = fresh;
  table->slots[slot].store(replacement.get(), std::memory_order_release);
  approx_bytes_.fetch_add(NodeBytes(key), std::memory_order_relaxed);
  nodes_.push_back(std::move(replacement));
  auto it = by_name_.find(key.name_id());
  if (it != by_name_.end()) {
    for (auto& state : it->second) {
      if (state == old_state) {
        state = fresh;
        break;
      }
    }
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);  // old state retired
  generation_.fetch_add(1, std::memory_order_release);
  return fresh;
}

std::vector<std::shared_ptr<MetricState>> MetricRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<MetricState>> out;
  out.reserve(live_count_.load(std::memory_order_relaxed));
  for (const auto& [name_id, states] : by_name_) {
    out.insert(out.end(), states.begin(), states.end());
  }
  return out;
}

std::vector<std::shared_ptr<MetricState>> MetricRegistry::MatchSelector(
    const TagSelector& selector) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<MetricState>> out;
  if (selector.name.empty()) {
    // Wildcard name: the tag predicate must scan the whole registry.
    for (const auto& [name_id, states] : by_name_) {
      for (const auto& state : states) {
        if (selector.Matches(state->key())) out.push_back(state);
      }
    }
    return out;
  }
  auto it = by_name_.find(StringInterner::Global().Intern(selector.name));
  if (it == by_name_.end()) return out;
  for (const auto& state : it->second) {
    if (selector.Matches(state->key())) out.push_back(state);
  }
  return out;
}

size_t MetricRegistry::CountForName(uint32_t name_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name_id);
  return it == by_name_.end() ? 0 : it->second.size();
}

}  // namespace engine
}  // namespace qlove
