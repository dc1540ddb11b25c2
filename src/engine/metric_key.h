// Copyright 2026 The QLOVE Reproduction Authors
// Identity of one monitored metric: a name plus a canonical (sorted,
// name-deduped) tag set, e.g. rtt_us{dc=eu-1,service=search}. Datacenter
// telemetry keys every stream by such a pair; the engine's registry hashes
// MetricKeys to route records to the owning metric state. TagSelector is
// the query-side counterpart: a name plus a tag predicate matching a whole
// family of keys (every per-host metric of one service, say) for rollups.
//
// Keys are interned: every tag name/value string resolves to a stable
// integer id in the process-wide StringInterner at construction, so a key
// is a flat id tuple with its canonical hash precomputed. Registry lookups
// compare and hash integers only; strings resurface solely at the API edge
// (ToString, wire encode, selector matching against string predicates).

#ifndef QLOVE_ENGINE_METRIC_KEY_H_
#define QLOVE_ENGINE_METRIC_KEY_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/interner.h"

namespace qlove {
namespace engine {

/// \brief One metric tag (dimension), e.g. {"service", "search"}.
using MetricTag = std::pair<std::string, std::string>;

/// \brief Immutable metric identity: name + canonical tags, interned.
///
/// Tags are canonicalized on every construction path — the constructor and
/// WithTag — by interning, deduplicating repeated tag names (last
/// occurrence wins, so `WithTag("host", b)` on a key already carrying
/// `host=a` *overrides* rather than forking the key), and sorting by tag
/// name. The canonical FNV-1a hash over the id tuple is cached at
/// construction; fields are private, so a key's hash can never go stale
/// behind its registry bucket. Equality is integer compares.
class MetricKey {
 public:
  /// A non-owning view of one tag; valid for the process lifetime
  /// (interned storage is never freed).
  struct TagView {
    std::string_view name;
    std::string_view value;
  };

  /// The default key (empty name, no tags) never touches the interner, so
  /// static-init-order is trivial for default-constructed keys.
  constexpr MetricKey() = default;

  explicit MetricKey(std::string_view name, std::vector<MetricTag> tags = {})
      : name_id_(StringInterner::Global().Intern(name)) {
    tag_ids_.reserve(tags.size());
    for (const MetricTag& tag : tags) {
      AddOrReplaceTag(tag.first, tag.second);
    }
    Canonicalize();
  }

  std::string_view name() const {
    return StringInterner::Global().View(name_id_);
  }
  /// Interner id of the name — the registry's name-index key.
  uint32_t name_id() const { return name_id_; }

  size_t tag_count() const { return tag_ids_.size(); }
  /// The i-th canonical tag (sorted by tag name; names are unique).
  TagView tag(size_t i) const {
    const StringInterner& interner = StringInterner::Global();
    return TagView{interner.View(tag_ids_[i].first),
                   interner.View(tag_ids_[i].second)};
  }

  /// Materializes the canonical tag list as owned strings. API-edge
  /// convenience; per-record paths should use tag_count()/tag().
  std::vector<MetricTag> tags() const {
    std::vector<MetricTag> out;
    out.reserve(tag_ids_.size());
    for (size_t i = 0; i < tag_ids_.size(); ++i) {
      TagView view = tag(i);
      out.emplace_back(std::string(view.name), std::string(view.value));
    }
    return out;
  }

  /// The cached canonical hash (computed once at construction).
  size_t hash() const { return hash_; }

  /// Builder: a copy of this key with one more tag, re-canonicalized — the
  /// supported way to derive per-host keys from a base key:
  ///   MetricKey("rtt_us").WithTag("service", "search").WithTag("host", h)
  /// Re-using an existing tag name replaces its value (last wins).
  MetricKey WithTag(std::string_view tag_name,
                    std::string_view tag_value) const {
    MetricKey derived = *this;
    derived.AddOrReplaceTag(tag_name, tag_value);
    derived.Canonicalize();
    return derived;
  }

  /// Renders "name{k1=v1,k2=v2}" (just "name" when untagged).
  std::string ToString() const {
    std::string out(name());
    if (tag_ids_.empty()) return out;
    out += '{';
    for (size_t i = 0; i < tag_ids_.size(); ++i) {
      if (i > 0) out += ',';
      TagView view = tag(i);
      out += view.name;
      out += '=';
      out += view.value;
    }
    out += '}';
    return out;
  }

  bool operator==(const MetricKey& other) const {
    return hash_ == other.hash_ && name_id_ == other.name_id_ &&
           tag_ids_ == other.tag_ids_;
  }

  /// Canonical ordering — by name string, then by the sorted tag list's
  /// strings. Interner ids are assigned in first-sight order, so ordering
  /// must go through the views to stay the deterministic string order
  /// Query's `matched` and Export report in.
  std::strong_ordering operator<=>(const MetricKey& other) const {
    const StringInterner& interner = StringInterner::Global();
    if (name_id_ != other.name_id_) {
      if (auto c = interner.View(name_id_) <=> interner.View(other.name_id_);
          c != 0) {
        return c;
      }
    }
    const size_t common = std::min(tag_ids_.size(), other.tag_ids_.size());
    for (size_t i = 0; i < common; ++i) {
      if (tag_ids_[i] == other.tag_ids_[i]) continue;  // same ids, same text
      if (auto c = interner.View(tag_ids_[i].first) <=>
                   interner.View(other.tag_ids_[i].first);
          c != 0) {
        return c;
      }
      if (auto c = interner.View(tag_ids_[i].second) <=>
                   interner.View(other.tag_ids_[i].second);
          c != 0) {
        return c;
      }
    }
    return tag_ids_.size() <=> other.tag_ids_.size();
  }

 private:
  static constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
  static constexpr uint64_t kFnvPrime = 1099511628211ULL;

  /// FNV-1a over one id's 4 little-endian bytes plus the same 0x1f field
  /// separator the pre-interning string hash used.
  static constexpr uint64_t MixId(uint64_t h, uint32_t id) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (id >> shift) & 0xffu;
      h *= kFnvPrime;
    }
    h ^= 0x1f;
    h *= kFnvPrime;
    return h;
  }

  /// Last-wins insert against the (pre-sort) tag id list.
  void AddOrReplaceTag(std::string_view tag_name, std::string_view tag_value) {
    StringInterner& interner = StringInterner::Global();
    const uint32_t name_id = interner.Intern(tag_name);
    const uint32_t value_id = interner.Intern(tag_value);
    for (auto& pair : tag_ids_) {
      if (pair.first == name_id) {
        pair.second = value_id;
        return;
      }
    }
    tag_ids_.emplace_back(name_id, value_id);
  }

  /// Sorts deduped tags by (name, value) string views and caches the hash.
  void Canonicalize() {
    const StringInterner& interner = StringInterner::Global();
    std::sort(tag_ids_.begin(), tag_ids_.end(),
              [&interner](const std::pair<uint32_t, uint32_t>& a,
                          const std::pair<uint32_t, uint32_t>& b) {
                // Tag names are unique after dedupe; value is a tiebreak
                // for determinism only.
                if (a.first != b.first) {
                  int c = interner.View(a.first).compare(interner.View(b.first));
                  if (c != 0) return c < 0;
                }
                if (a.second == b.second) return false;
                return interner.View(a.second) < interner.View(b.second);
              });
    uint64_t h = MixId(kFnvBasis, name_id_);
    for (const auto& pair : tag_ids_) {
      h = MixId(h, pair.first);
      h = MixId(h, pair.second);
    }
    hash_ = static_cast<size_t>(h);
  }

  uint32_t name_id_ = 0;  // id 0 is always ""
  /// (tag name id, tag value id), sorted by tag name string; names unique.
  std::vector<std::pair<uint32_t, uint32_t>> tag_ids_;
  /// Cached canonical hash. The constant is MixId(kFnvBasis, 0) — the hash
  /// of the empty key — kept inline so the default constructor stays
  /// constexpr and interner-free.
  size_t hash_ = static_cast<size_t>(MixId(kFnvBasis, 0));
};

/// \brief Reads the hash MetricKey caches at construction (satellite of
/// the interning change: lookups used to re-run FNV-1a over every string).
struct MetricKeyHash {
  size_t operator()(const MetricKey& key) const { return key.hash(); }
};

/// \brief A predicate over MetricKeys: matches every registered metric
/// sharing \p name whose tag set contains every selector tag.
///
/// An empty name is a wildcard (any metric name); empty tags match any tag
/// set — so a default-constructed selector matches every registered metric.
/// Selector tags are exact (name, value) pairs, each of which must be
/// present in the key. Keys canonicalize duplicate tag names away
/// (last wins), so a selector listing the same tag name twice with
/// different values matches nothing; listing the same pair twice is
/// harmless (the duplicate requirement is skipped).
struct TagSelector {
  std::string name;              ///< Metric name; empty matches any.
  std::vector<MetricTag> tags;   ///< Required (name, value) pairs.

  bool Matches(const MetricKey& key) const {
    if (!name.empty() && name != key.name()) return false;
    if (tags.empty()) return true;
    // Key tags are sorted with unique names; walk both sides in lockstep
    // instead of a linear find per requirement (wide keys hit this on
    // every wildcard MatchSelector scan).
    const std::vector<MetricTag>* required = &tags;
    std::vector<MetricTag> sorted_tags;
    if (!std::is_sorted(tags.begin(), tags.end())) {
      sorted_tags = tags;
      std::sort(sorted_tags.begin(), sorted_tags.end());
      required = &sorted_tags;
    }
    size_t key_index = 0;
    const size_t key_count = key.tag_count();
    for (size_t i = 0; i < (*required).size(); ++i) {
      const MetricTag& want = (*required)[i];
      if (i > 0 && want == (*required)[i - 1]) continue;  // duplicate pair
      for (;; ++key_index) {
        if (key_index == key_count) return false;
        MetricKey::TagView have = key.tag(key_index);
        auto order = have.name <=> std::string_view(want.first);
        if (order == 0) order = have.value <=> std::string_view(want.second);
        if (order > 0) return false;  // passed the slot; requirement absent
        if (order == 0) {
          ++key_index;
          break;
        }
      }
    }
    return true;
  }

  /// Renders "name{k=v,...}" with "*" for a wildcard name.
  std::string ToString() const {
    std::string out = name.empty() ? "*" : name;
    if (tags.empty()) return out;
    out += '{';
    for (size_t i = 0; i < tags.size(); ++i) {
      if (i > 0) out += ',';
      out += tags[i].first;
      out += '=';
      out += tags[i].second;
    }
    out += '}';
    return out;
  }
};

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_METRIC_KEY_H_
