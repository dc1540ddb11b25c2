#include "engine/wire.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

namespace qlove {
namespace engine {

// ---------------------------------------------------------------------------
// Varint/zigzag integers, tagged log-linear doubles, delta frames. The
// encoder appends into a caller-owned vector (clear() keeps
// capacity, so a reused buffer stops allocating at steady state); the
// decoder enforces minimal varints and strict tags so every decodable
// value has exactly one byte form and encode(decode(x)) is byte-identical.
// ---------------------------------------------------------------------------

namespace {

constexpr int kExpMin = -12;
constexpr int kExpMax = 13;

// Exact double constants for 10^e, e in [kExpMin, kExpMax] — the same
// span the quantizer's decade decomposition covers. Indexed by e - kExpMin.
constexpr double kPow10[kExpMax - kExpMin + 1] = {
    1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4,
    1e-3,  1e-2,  1e-1,  1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
    1e6,   1e7,   1e8,   1e9,  1e10, 1e11, 1e12, 1e13};

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);  // arithmetic shift: sign smear
}

inline int64_t ZigzagDecode(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

inline uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

size_t VarUSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void VarU(uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_->push_back(static_cast<uint8_t>(v));
  }
  void VarI(int64_t v) { VarU(ZigzagEncode(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Raw64(uint64_t bits) {
    for (int shift = 0; shift < 64; shift += 8) {
      U8(static_cast<uint8_t>(bits >> shift));
    }
  }
  void Str(std::string_view s) {
    VarU(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  std::vector<uint8_t>* out_;
};

// True when v reconstructs bit-exactly as mantissa * 10^exponent with the
// exponent in table range and the mantissa zigzag-encodable into a tagged
// header (top 2 bits free). Scans exponents high-to-low so the first match
// has the smallest mantissa — both deterministic and cheapest.
bool LogLinearDecompose(double v, int64_t* mantissa, int* exponent) {
  for (int e = kExpMax; e >= kExpMin; --e) {
    const double scaled = v / kPow10[e - kExpMin];
    if (!(scaled > -9.2e18 && scaled < 9.2e18)) continue;  // llround UB guard
    const int64_t m = std::llround(scaled);
    if (ZigzagEncode(m) >> 62 != 0) continue;
    if (BitsOf(static_cast<double>(m) * kPow10[e - kExpMin]) ==
        BitsOf(v)) {
      *mantissa = m;
      *exponent = e;
      return true;
    }
  }
  return false;
}

// Tagged double: varint header whose low 2 bits select the form —
// 0: zigzag integer, 1: zigzag mantissa + biased-exponent byte (value is
// mantissa * 10^e bit-exactly), 2: raw IEEE-754 escape (9 bytes). The
// cheapest valid tag wins, ties to the lower tag; everything is a pure
// function of the double's bits, so re-encoding decoded values reproduces
// the input bytes. This is the reference form: it tries every exponent.
void EncodeValueByScan(double v, Writer* w) {
  int best_tag = 2;
  size_t best_size = 9;
  int64_t integer = 0;
  int64_t mantissa = 0;
  int exponent = 0;
  if (std::isfinite(v) && v > -9.2e18 && v < 9.2e18) {
    const int64_t i = static_cast<int64_t>(v);
    if (BitsOf(static_cast<double>(i)) == BitsOf(v) &&
        ZigzagEncode(i) >> 62 == 0) {
      best_tag = 0;
      best_size = VarUSize(ZigzagEncode(i) << 2);
      integer = i;
    }
  }
  if (std::isfinite(v) && LogLinearDecompose(v, &mantissa, &exponent)) {
    const size_t size = VarUSize((ZigzagEncode(mantissa) << 2) | 1) + 1;
    if (size < best_size) {
      best_tag = 1;
      best_size = size;
    }
  }
  switch (best_tag) {
    case 0:
      w->VarU(ZigzagEncode(integer) << 2);
      break;
    case 1:
      w->VarU((ZigzagEncode(mantissa) << 2) | 1);
      w->U8(static_cast<uint8_t>(exponent - kExpMin));
      break;
    default:
      w->VarU(2);
      w->Raw64(BitsOf(v));
      break;
  }
}

// EncodeValueByScan's bytes, without the scan for integers below 2^52 in
// magnitude (grid values, top-k values and counts mostly are). For such an
// integer i, m * 10^e stays an exact integer below 2^53 for every
// candidate, so it reproduces i exactly when 10^e divides i: the scan's
// first (highest) match is e = min(trailing decimal zeros, kExpMax). +0.0
// is tag 0 (one byte against tag 1's two); -0.0, NaN, infinities and
// non-integers take the scan.
void EncodeValue(double v, Writer* w) {
  constexpr double kTwoTo52 = 4503599627370496.0;
  if (v > -kTwoTo52 && v < kTwoTo52) {  // false for NaN
    const int64_t i = static_cast<int64_t>(v);
    if (BitsOf(static_cast<double>(i)) == BitsOf(v)) {
      const uint64_t integer_header = ZigzagEncode(i) << 2;
      if (i == 0) {
        w->VarU(integer_header);
        return;
      }
      int64_t mantissa = i;
      int exponent = 0;
      while (exponent < kExpMax && mantissa % 10 == 0) {
        mantissa /= 10;
        ++exponent;
      }
      const uint64_t header = (ZigzagEncode(mantissa) << 2) | 1;
      if (VarUSize(header) + 1 < VarUSize(integer_header)) {
        w->VarU(header);
        w->U8(static_cast<uint8_t>(exponent - kExpMin));
      } else {
        w->VarU(integer_header);
      }
      return;
    }
  }
  EncodeValueByScan(v, w);
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  Status U8(uint8_t* out) {
    if (remaining() < 1) return Fail(kTruncated);
    *out = data_[pos_++];
    return Status::OK();
  }
  Status U16(uint16_t* out) {
    uint8_t lo = 0;
    uint8_t hi = 0;
    QLOVE_RETURN_NOT_OK(U8(&lo));
    QLOVE_RETURN_NOT_OK(U8(&hi));
    *out = static_cast<uint16_t>(lo | (hi << 8));
    return Status::OK();
  }
  Status Raw64(uint64_t* out) { return Check(ReadRaw64(out)); }
  Status VarU(uint64_t* out) { return Check(ReadVarU(out)); }
  Status VarI(int64_t* out) {
    uint64_t z = 0;
    QLOVE_RETURN_NOT_OK(VarU(&z));
    *out = ZigzagDecode(z);
    return Status::OK();
  }
  /// Unsigned varint that must fit a non-negative int64 (counts, epochs).
  Status NonNegVar(int64_t* out, const char* what) {
    uint64_t v = 0;
    QLOVE_RETURN_NOT_OK(VarU(&v));
    if (v > static_cast<uint64_t>(INT64_MAX)) {
      return Status::InvalidArgument(std::string("wire: ") + what +
                                     " overflows int64");
    }
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }
  /// Element count checked against the bytes that could possibly back it
  /// BEFORE the caller allocates: a hostile count fails here, not in a
  /// multi-GB reserve.
  Status VarCount(uint64_t* out, size_t min_element_bytes, const char* what) {
    QLOVE_RETURN_NOT_OK(VarU(out));
    if (min_element_bytes > 0 && *out > remaining() / min_element_bytes) {
      return Status::InvalidArgument(
          std::string("wire: truncated buffer (") + what + " count " +
          std::to_string(*out) + " exceeds remaining bytes)");
    }
    return Status::OK();
  }
  Status Bool(bool* out) {
    uint8_t v = 0;
    QLOVE_RETURN_NOT_OK(U8(&v));
    if (v > 1) return Status::InvalidArgument("wire: boolean byte not 0/1");
    *out = v == 1;
    return Status::OK();
  }
  Status Str(std::string* out) {
    uint64_t n = 0;
    QLOVE_RETURN_NOT_OK(VarCount(&n, 1, "string"));
    out->assign(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }
  Status Value(double* out) { return Check(ReadValue(out)); }
  /// Decodes \p n consecutive values (a quantile grid, a tail's samples):
  /// the bulk of every frame, so the per-value path builds no Status.
  Status Values(double* out, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (const char* fault = ReadValue(&out[i])) return Fail(fault);
    }
    return Status::OK();
  }

 private:
  // The hot primitives return nullptr on success, or a static description
  // of the malformation that Check/Fail turn into a Status — only failures
  // pay for one.
  static constexpr const char* kTruncated = "wire: truncated buffer";

  const char* ReadRaw64(uint64_t* out) {
    if (remaining() < 8) return kTruncated;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return nullptr;
  }
  const char* ReadVarU(uint64_t* out) {
    uint64_t v = 0;
    const size_t start = pos_;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return kTruncated;
      const uint8_t byte = data_[pos_++];
      const uint64_t payload = byte & 0x7F;
      if (shift == 63 && payload > 1) return "wire: varint overflows 64 bits";
      v |= payload << shift;
      if ((byte & 0x80) == 0) {
        // Minimal-encoding rule: a multi-byte varint may not end in an
        // all-zero byte, so every value has exactly one encoding.
        if (payload == 0 && pos_ - start > 1) {
          return "wire: non-minimal varint";
        }
        *out = v;
        return nullptr;
      }
    }
    return "wire: varint longer than 10 bytes";
  }
  const char* ReadValue(double* out) {
    uint64_t header = 0;
    if (const char* fault = ReadVarU(&header)) return fault;
    switch (header & 3) {
      case 0:
        *out = static_cast<double>(ZigzagDecode(header >> 2));
        return nullptr;
      case 1: {
        if (remaining() < 1) return kTruncated;
        const uint8_t biased = data_[pos_++];
        if (biased > kExpMax - kExpMin) {
          return "wire: value exponent out of range";
        }
        // The exact expression the encoder verified bit-equality against.
        *out = static_cast<double>(ZigzagDecode(header >> 2)) *
               kPow10[biased];
        return nullptr;
      }
      case 2: {
        if (header != 2) return "wire: raw value header has payload bits";
        uint64_t bits = 0;
        if (const char* fault = ReadRaw64(&bits)) return fault;
        std::memcpy(out, &bits, sizeof(*out));
        return nullptr;
      }
      default:
        return "wire: unknown value tag 3";
    }
  }

  Status Check(const char* fault) const {
    return fault == nullptr ? Status::OK() : Fail(fault);
  }
  Status Fail(const char* fault) const {
    if (fault == kTruncated) {
      return Status::InvalidArgument(std::string(kTruncated) +
                                     " at offset " + std::to_string(pos_));
    }
    return Status::InvalidArgument(fault);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void EncodeKey(const MetricKey& key, Writer* w) {
  w->Str(key.name());
  w->VarU(key.tag_count());
  for (size_t i = 0; i < key.tag_count(); ++i) {
    MetricKey::TagView tag = key.tag(i);
    w->Str(tag.name);
    w->Str(tag.value);
  }
}

Status DecodeKey(Reader* r, MetricKey* key) {
  std::string name;
  QLOVE_RETURN_NOT_OK(r->Str(&name));
  uint64_t num_tags = 0;
  QLOVE_RETURN_NOT_OK(r->VarCount(&num_tags, 2, "tag"));
  std::vector<MetricTag> tags(num_tags);
  for (MetricTag& tag : tags) {
    QLOVE_RETURN_NOT_OK(r->Str(&tag.first));
    QLOVE_RETURN_NOT_OK(r->Str(&tag.second));
  }
  // MetricKey re-canonicalizes its tags. Encoded keys come from a
  // MetricKey, so their tags arrive sorted and unique and survive a
  // re-encode byte-identically; a corrupt buffer whose tags decode out of
  // order is silently canonicalized, which is the safe direction. A
  // duplicate tag name, though, would be silently *collapsed* (last wins)
  // — reject it so the re-encode invariant holds.
  *key = MetricKey(std::move(name), std::move(tags));
  if (key->tag_count() != num_tags) {
    return Status::InvalidArgument("duplicate tag name in encoded key");
  }
  return Status::OK();
}

// Window, phi grid, backend kind and knobs, always in this order (the
// format IS this order; any change is a version bump).
void EncodeOptions(const MetricOptions& options, Writer* w) {
  w->VarI(options.shard_window.size);
  w->VarI(options.shard_window.period);
  w->VarU(options.phis.size());
  for (double phi : options.phis) EncodeValue(phi, w);
  const BackendOptions& backend = options.backend;
  w->U8(static_cast<uint8_t>(backend.kind));
  EncodeValue(backend.epsilon, w);
  const core::QloveOptions& q = backend.qlove;
  w->VarI(q.quantizer_digits);
  w->Bool(q.enable_fewk);
  EncodeValue(q.high_quantile_threshold, w);
  EncodeValue(q.fewk.topk_fraction, w);
  EncodeValue(q.fewk.samplek_fraction, w);
  w->VarI(q.fewk.ts);
  EncodeValue(q.burst_significance, w);
  EncodeValue(q.burst_min_superiority, w);
  w->Bool(q.enable_error_bounds);
  w->VarI(q.density_reservoir_capacity);
}

Status DecodeKind(Reader* r, BackendKind* kind) {
  uint8_t raw = 0;
  QLOVE_RETURN_NOT_OK(r->U8(&raw));
  if (raw > static_cast<uint8_t>(BackendKind::kExact)) {
    return Status::InvalidArgument("wire: unknown backend kind " +
                                   std::to_string(raw));
  }
  *kind = static_cast<BackendKind>(raw);
  return Status::OK();
}

Status DecodeOptions(Reader* r, MetricOptions* options) {
  QLOVE_RETURN_NOT_OK(r->VarI(&options->shard_window.size));
  QLOVE_RETURN_NOT_OK(r->VarI(&options->shard_window.period));
  uint64_t num_phis = 0;
  QLOVE_RETURN_NOT_OK(r->VarCount(&num_phis, 1, "phi grid"));
  options->phis.resize(num_phis);
  QLOVE_RETURN_NOT_OK(r->Values(options->phis.data(), options->phis.size()));
  BackendOptions& backend = options->backend;
  QLOVE_RETURN_NOT_OK(DecodeKind(r, &backend.kind));
  QLOVE_RETURN_NOT_OK(r->Value(&backend.epsilon));
  core::QloveOptions& q = backend.qlove;
  int64_t digits = 0;
  QLOVE_RETURN_NOT_OK(r->VarI(&digits));
  if (digits < INT32_MIN || digits > INT32_MAX) {
    return Status::InvalidArgument("wire: quantizer digits overflow int32");
  }
  q.quantizer_digits = static_cast<int32_t>(digits);
  QLOVE_RETURN_NOT_OK(r->Bool(&q.enable_fewk));
  QLOVE_RETURN_NOT_OK(r->Value(&q.high_quantile_threshold));
  QLOVE_RETURN_NOT_OK(r->Value(&q.fewk.topk_fraction));
  QLOVE_RETURN_NOT_OK(r->Value(&q.fewk.samplek_fraction));
  QLOVE_RETURN_NOT_OK(r->VarI(&q.fewk.ts));
  QLOVE_RETURN_NOT_OK(r->Value(&q.burst_significance));
  QLOVE_RETURN_NOT_OK(r->Value(&q.burst_min_superiority));
  QLOVE_RETURN_NOT_OK(r->Bool(&q.enable_error_bounds));
  QLOVE_RETURN_NOT_OK(r->VarI(&q.density_reservoir_capacity));
  return Status::OK();
}

// Sub-windows chain their epochs: the first is absolute, the rest are
// non-negative deltas (epochs are non-decreasing by construction — the
// operator stamps them from a monotone boundary counter).
void EncodeSubWindow(const core::SubWindowSummary& sub, bool first,
                       int64_t prev_epoch, Writer* w) {
  w->VarU(static_cast<uint64_t>(sub.count));
  w->VarU(static_cast<uint64_t>(first ? sub.epoch : sub.epoch - prev_epoch));
  w->Bool(sub.bursty);
  w->VarU(sub.quantiles.size());
  for (double quantile : sub.quantiles) EncodeValue(quantile, w);
  w->VarU(sub.tails.size());
  for (const core::TailCapture& tail : sub.tails) {
    w->VarU(tail.topk.size());
    for (const auto& [value, count] : tail.topk) {
      EncodeValue(value, w);
      w->VarU(static_cast<uint64_t>(count));
    }
    w->VarU(tail.samples.size());
    for (double sample : tail.samples) EncodeValue(sample, w);
  }
}

// Minimum encoded bytes per element (for VarCount pre-checks):
// every varint/Value is at least 1 byte.
constexpr size_t kMinSubWindowBytes = 5;   // count+epoch+bursty+2 counts
constexpr size_t kMinSummaryBytes = 7;     // kind..semantics+payload count
constexpr size_t kMinMetricBytes = 16;     // key(2)+options(13)+shards(1)

Status DecodeSubWindow(Reader* r, bool first, int64_t prev_epoch,
                         core::SubWindowSummary* sub) {
  QLOVE_RETURN_NOT_OK(r->NonNegVar(&sub->count, "sub-window count"));
  if (first) {
    QLOVE_RETURN_NOT_OK(r->NonNegVar(&sub->epoch, "sub-window epoch"));
  } else {
    uint64_t delta = 0;
    QLOVE_RETURN_NOT_OK(r->VarU(&delta));
    if (delta > static_cast<uint64_t>(INT64_MAX - prev_epoch)) {
      return Status::InvalidArgument("wire: sub-window epoch overflows");
    }
    sub->epoch = prev_epoch + static_cast<int64_t>(delta);
  }
  QLOVE_RETURN_NOT_OK(r->Bool(&sub->bursty));
  uint64_t num_quantiles = 0;
  QLOVE_RETURN_NOT_OK(r->VarCount(&num_quantiles, 1, "quantile"));
  sub->quantiles.resize(num_quantiles);
  QLOVE_RETURN_NOT_OK(r->Values(sub->quantiles.data(), sub->quantiles.size()));
  uint64_t num_tails = 0;
  QLOVE_RETURN_NOT_OK(r->VarCount(&num_tails, 2, "tail capture"));
  sub->tails.resize(num_tails);
  for (core::TailCapture& tail : sub->tails) {
    uint64_t num_topk = 0;
    QLOVE_RETURN_NOT_OK(r->VarCount(&num_topk, 2, "top-k entry"));
    tail.topk.resize(num_topk);
    for (auto& [value, count] : tail.topk) {
      QLOVE_RETURN_NOT_OK(r->Value(&value));
      QLOVE_RETURN_NOT_OK(r->NonNegVar(&count, "top-k multiplicity"));
    }
    uint64_t num_samples = 0;
    QLOVE_RETURN_NOT_OK(r->VarCount(&num_samples, 1, "tail sample"));
    tail.samples.resize(num_samples);
    QLOVE_RETURN_NOT_OK(r->Values(tail.samples.data(), tail.samples.size()));
  }
  return Status::OK();
}

// A sub-window list: its length, then each sub-window with chained epochs.
void EncodeSubWindows(std::span<const core::SubWindowSummary> subs,
                      Writer* w) {
  w->VarU(subs.size());
  int64_t prev_epoch = 0;
  bool first = true;
  for (const core::SubWindowSummary& sub : subs) {
    EncodeSubWindow(sub, first, prev_epoch, w);
    prev_epoch = sub.epoch;
    first = false;
  }
}

// One summary, with \p inflight written in place of its own field.
void EncodeSummary(const BackendSummary& summary, int64_t inflight,
                   Writer* w) {
  w->U8(static_cast<uint8_t>(summary.kind));
  w->VarU(static_cast<uint64_t>(summary.count));
  w->VarU(static_cast<uint64_t>(inflight));
  w->Bool(summary.burst_active);
  EncodeValue(summary.rank_error, w);
  w->U8(static_cast<uint8_t>(summary.semantics));
  if (summary.kind == BackendKind::kQlove) {
    EncodeSubWindows(summary.subwindows, w);
  } else {
    w->VarU(summary.entries.size());
    for (const auto& [value, weight] : summary.entries) {
      EncodeValue(value, w);
      w->VarU(static_cast<uint64_t>(weight));
    }
  }
}

Status DecodeSummary(Reader* r, BackendSummary* summary) {
  QLOVE_RETURN_NOT_OK(DecodeKind(r, &summary->kind));
  QLOVE_RETURN_NOT_OK(r->NonNegVar(&summary->count, "summary count"));
  QLOVE_RETURN_NOT_OK(r->NonNegVar(&summary->inflight, "inflight count"));
  QLOVE_RETURN_NOT_OK(r->Bool(&summary->burst_active));
  QLOVE_RETURN_NOT_OK(r->Value(&summary->rank_error));
  uint8_t semantics = 0;
  QLOVE_RETURN_NOT_OK(r->U8(&semantics));
  if (semantics > static_cast<uint8_t>(sketch::RankSemantics::kInterpolated)) {
    return Status::InvalidArgument("wire: unknown rank semantics " +
                                   std::to_string(semantics));
  }
  summary->semantics = static_cast<sketch::RankSemantics>(semantics);
  if (summary->kind == BackendKind::kQlove) {
    uint64_t num_sub = 0;
    QLOVE_RETURN_NOT_OK(r->VarCount(&num_sub, kMinSubWindowBytes,
                                    "sub-window"));
    summary->subwindows.resize(num_sub);
    int64_t prev_epoch = 0;
    bool first = true;
    for (core::SubWindowSummary& sub : summary->subwindows) {
      QLOVE_RETURN_NOT_OK(DecodeSubWindow(r, first, prev_epoch, &sub));
      prev_epoch = sub.epoch;
      first = false;
    }
  } else {
    uint64_t num_entries = 0;
    QLOVE_RETURN_NOT_OK(r->VarCount(&num_entries, 2, "weighted entry"));
    summary->entries.resize(num_entries);
    for (auto& [value, weight] : summary->entries) {
      QLOVE_RETURN_NOT_OK(r->Value(&value));
      QLOVE_RETURN_NOT_OK(r->NonNegVar(&weight, "entry weight"));
    }
  }
  return Status::OK();
}

void EncodeHeader(uint8_t flags, Writer* w) {
  for (uint8_t byte : kWireMagic) w->U8(byte);
  w->U16(kWireVersionV2);
  w->U8(flags);
}

// The body after the flags byte. A full frame has no base epoch and no
// mode bytes: its records are all kFull, so a full metric is at least
// kMinMetricBytes long while a delta's kQloveDelta record can be 3.
Status DecodeBody(Reader* r, WireFrame* frame) {
  QLOVE_RETURN_NOT_OK(r->Str(&frame->source));
  QLOVE_RETURN_NOT_OK(r->Raw64(&frame->sync_token));
  QLOVE_RETURN_NOT_OK(r->NonNegVar(&frame->epoch, "frame epoch"));
  if (frame->is_delta) {
    QLOVE_RETURN_NOT_OK(
        r->NonNegVar(&frame->base_epoch, "delta base epoch"));
    if (frame->base_epoch > frame->epoch) {
      return Status::InvalidArgument("wire: delta base epoch exceeds frame "
                                     "epoch");
    }
  }
  uint64_t num_metrics = 0;
  QLOVE_RETURN_NOT_OK(r->VarCount(
      &num_metrics, frame->is_delta ? 3 : kMinMetricBytes, "metric"));
  frame->metrics.resize(num_metrics);
  for (WireMetricDelta& metric : frame->metrics) {
    QLOVE_RETURN_NOT_OK(DecodeKey(r, &metric.key));
    if (frame->is_delta) {
      uint8_t mode = 0;
      QLOVE_RETURN_NOT_OK(r->U8(&mode));
      if (mode > static_cast<uint8_t>(WireDeltaMode::kQloveDelta)) {
        return Status::InvalidArgument("wire: unknown delta mode " +
                                       std::to_string(mode));
      }
      metric.mode = static_cast<WireDeltaMode>(mode);
    }
    if (metric.mode == WireDeltaMode::kFull) {
      QLOVE_RETURN_NOT_OK(DecodeOptions(r, &metric.options));
      uint64_t num_shards = 0;
      QLOVE_RETURN_NOT_OK(r->VarCount(&num_shards, kMinSummaryBytes,
                                      "shard summary"));
      metric.shards.resize(num_shards);
      for (BackendSummary& shard : metric.shards) {
        QLOVE_RETURN_NOT_OK(DecodeSummary(r, &shard));
      }
    } else {
      QLOVE_RETURN_NOT_OK(
          r->NonNegVar(&metric.first_live_epoch, "first live epoch"));
      QLOVE_RETURN_NOT_OK(r->NonNegVar(&metric.count, "summary count"));
      QLOVE_RETURN_NOT_OK(r->NonNegVar(&metric.inflight, "inflight count"));
      QLOVE_RETURN_NOT_OK(r->Bool(&metric.burst_active));
      QLOVE_RETURN_NOT_OK(r->Value(&metric.rank_error));
      uint64_t num_new = 0;
      QLOVE_RETURN_NOT_OK(r->VarCount(&num_new, kMinSubWindowBytes,
                                      "delta sub-window"));
      metric.new_subwindows.resize(num_new);
      int64_t prev_epoch = 0;
      bool first = true;
      for (core::SubWindowSummary& sub : metric.new_subwindows) {
        QLOVE_RETURN_NOT_OK(DecodeSubWindow(r, first, prev_epoch, &sub));
        prev_epoch = sub.epoch;
        first = false;
      }
    }
  }
  return Status::OK();
}

}  // namespace

FrameWriter::FrameWriter(std::vector<uint8_t>* out) : out_(out) {
  out_->clear();
}

void FrameWriter::FullHeader(std::string_view source, uint64_t sync_token,
                             int64_t epoch, size_t num_metrics) {
  Writer w(out_);
  EncodeHeader(/*flags=*/0, &w);
  w.Str(source);
  w.Raw64(sync_token);
  w.VarU(static_cast<uint64_t>(epoch));
  w.VarU(num_metrics);
  delta_ = false;
}

void FrameWriter::DeltaHeader(std::string_view source, uint64_t sync_token,
                              int64_t epoch, int64_t base_epoch,
                              size_t num_metrics) {
  Writer w(out_);
  EncodeHeader(kWireFlagDelta, &w);
  w.Str(source);
  w.Raw64(sync_token);
  w.VarU(static_cast<uint64_t>(epoch));
  w.VarU(static_cast<uint64_t>(base_epoch));
  w.VarU(num_metrics);
  delta_ = true;
}

void FrameWriter::WholeMetric(const MetricKey& key,
                              const MetricOptions& options,
                              std::span<const BackendSummary* const> shards,
                              std::optional<int64_t> inflight) {
  Writer w(out_);
  EncodeKey(key, &w);
  if (delta_) w.U8(static_cast<uint8_t>(WireDeltaMode::kFull));
  EncodeOptions(options, &w);
  w.VarU(shards.size());
  for (const BackendSummary* shard : shards) {
    EncodeSummary(*shard, inflight.value_or(shard->inflight), &w);
  }
}

void FrameWriter::QloveDeltaMetric(
    const MetricKey& key, int64_t first_live_epoch, int64_t count,
    int64_t inflight, bool burst_active, double rank_error,
    std::span<const core::SubWindowSummary> fresh) {
  Writer w(out_);
  EncodeKey(key, &w);
  w.U8(static_cast<uint8_t>(WireDeltaMode::kQloveDelta));
  w.VarU(static_cast<uint64_t>(first_live_epoch));
  w.VarU(static_cast<uint64_t>(count));
  w.VarU(static_cast<uint64_t>(inflight));
  w.Bool(burst_active);
  EncodeValue(rank_error, &w);
  EncodeSubWindows(fresh, &w);
}

namespace {

// \p summaries as the pointer span FrameWriter reads, built in \p scratch.
std::span<const BackendSummary* const> Pointers(
    const std::vector<BackendSummary>& summaries,
    std::vector<const BackendSummary*>* scratch) {
  scratch->clear();
  for (const BackendSummary& summary : summaries) scratch->push_back(&summary);
  return *scratch;
}

}  // namespace

void EncodeSnapshotV2(const WireSnapshot& snapshot, std::vector<uint8_t>* out) {
  FrameWriter writer(out);
  writer.FullHeader(snapshot.source, snapshot.sync_token, snapshot.epoch,
                    snapshot.metrics.size());
  std::vector<const BackendSummary*> shards;
  for (const WireMetricSummary& metric : snapshot.metrics) {
    writer.WholeMetric(metric.key, metric.options,
                       Pointers(metric.shards, &shards));
  }
}

std::vector<uint8_t> EncodeSnapshotV2(const WireSnapshot& snapshot) {
  std::vector<uint8_t> out;
  EncodeSnapshotV2(snapshot, &out);
  return out;
}

void EncodeFrame(const WireFrame& frame, std::vector<uint8_t>* out) {
  FrameWriter writer(out);
  if (frame.is_delta) {
    writer.DeltaHeader(frame.source, frame.sync_token, frame.epoch,
                       frame.base_epoch, frame.metrics.size());
  } else {
    writer.FullHeader(frame.source, frame.sync_token, frame.epoch,
                      frame.metrics.size());
  }
  std::vector<const BackendSummary*> shards;
  for (const WireMetricDelta& metric : frame.metrics) {
    if (metric.mode == WireDeltaMode::kFull) {
      writer.WholeMetric(metric.key, metric.options,
                         Pointers(metric.shards, &shards));
    } else {
      writer.QloveDeltaMetric(metric.key, metric.first_live_epoch,
                              metric.count, metric.inflight,
                              metric.burst_active, metric.rank_error,
                              metric.new_subwindows);
    }
  }
}

std::vector<uint8_t> EncodeFrame(const WireFrame& frame) {
  std::vector<uint8_t> out;
  EncodeFrame(frame, &out);
  return out;
}

namespace wire_internal {

void EncodeValue(double v, std::vector<uint8_t>* out) {
  Writer w(out);
  engine::EncodeValue(v, &w);
}

void EncodeValueByScan(double v, std::vector<uint8_t>* out) {
  Writer w(out);
  engine::EncodeValueByScan(v, &w);
}

}  // namespace wire_internal

Result<WireFrame> DecodeFrame(const uint8_t* data, size_t size) {
  if (data == nullptr && size > 0) {
    return Status::InvalidArgument("wire: null buffer");
  }
  Reader r(data, size);
  for (uint8_t expected : kWireMagic) {
    uint8_t byte = 0;
    QLOVE_RETURN_NOT_OK(r.U8(&byte));
    if (byte != expected) {
      return Status::InvalidArgument("wire: bad magic (not a QLWF snapshot)");
    }
  }
  uint16_t version = 0;
  QLOVE_RETURN_NOT_OK(r.U16(&version));
  if (version != kWireVersionV2) {
    return Status::InvalidArgument(
        "wire: unsupported version " + std::to_string(version) +
        " (this build speaks version " + std::to_string(kWireVersionV2) +
        " only)");
  }
  WireFrame frame;
  uint8_t flags = 0;
  QLOVE_RETURN_NOT_OK(r.U8(&flags));
  if ((flags & ~kWireFlagDelta) != 0) {
    return Status::InvalidArgument("wire: unknown flag bits " +
                                   std::to_string(flags));
  }
  frame.is_delta = (flags & kWireFlagDelta) != 0;
  QLOVE_RETURN_NOT_OK(DecodeBody(&r, &frame));
  if (r.remaining() != 0) {
    return Status::InvalidArgument(
        "wire: " + std::to_string(r.remaining()) +
        " trailing bytes after frame");
  }
  return frame;
}

Result<WireFrame> DecodeFrame(const std::vector<uint8_t>& buffer) {
  return DecodeFrame(buffer.data(), buffer.size());
}

uint64_t GenerateSyncToken() {
  // splitmix64 over a steady-clock draw plus a process-wide counter: two
  // tokens generated back to back (agent restarting within one clock tick)
  // still differ, and zero — the "no token" sentinel of hand-built
  // snapshots — is never produced.
  static std::atomic<uint64_t> counter{0};
  uint64_t x =
      counter.fetch_add(1, std::memory_order_relaxed) ^
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

Status FrameReader::Append(const uint8_t* data, size_t size) {
  if (!poisoned_.ok()) return poisoned_;
  while (size > 0) {
    if (!in_payload_) {
      const size_t take = std::min(size, sizeof(header_) - header_filled_);
      std::memcpy(header_ + header_filled_, data, take);
      header_filled_ += take;
      data += take;
      size -= take;
      if (header_filled_ < sizeof(header_)) return Status::OK();
      uint32_t declared = 0;
      for (int i = 0; i < 4; ++i) {
        declared |= static_cast<uint32_t>(header_[i]) << (8 * i);
      }
      if (static_cast<size_t>(declared) > max_frame_bytes_) {
        // Reject before reserving a byte: this is the defense against a
        // hostile 4 GB length prefix. The stream has no way to find the
        // next frame boundary past a frame it refused, so the failure is
        // sticky — callers close the connection.
        poisoned_ = Status::InvalidArgument(
            "frame length " + std::to_string(declared) +
            " exceeds the configured max of " +
            std::to_string(max_frame_bytes_));
        return poisoned_;
      }
      in_payload_ = true;
      payload_target_ = declared;
      payload_.clear();
      payload_.reserve(payload_target_);
    }
    const size_t take = std::min(size, payload_target_ - payload_.size());
    payload_.insert(payload_.end(), data, data + take);
    data += take;
    size -= take;
    if (payload_.size() == payload_target_) {
      // Frame complete (possibly empty). Compact the popped prefix of the
      // FIFO before growing it so a long-lived connection's queue doesn't
      // creep.
      if (complete_head_ > 0 && complete_head_ == complete_.size()) {
        complete_.clear();
        complete_head_ = 0;
      }
      complete_.push_back(std::move(payload_));
      payload_ = std::vector<uint8_t>();
      in_payload_ = false;
      header_filled_ = 0;
      payload_target_ = 0;
    }
  }
  return Status::OK();
}

bool FrameReader::PopFrame(std::vector<uint8_t>* frame) {
  if (complete_head_ >= complete_.size()) return false;
  *frame = std::move(complete_[complete_head_]);
  ++complete_head_;
  if (complete_head_ == complete_.size()) {
    complete_.clear();
    complete_head_ = 0;
  }
  return true;
}

size_t FrameReader::NextReadSize() const {
  if (complete_head_ < complete_.size()) return 0;
  if (!in_payload_) return sizeof(header_) - header_filled_;
  return payload_target_ - payload_.size();
}

size_t FrameReader::buffered_bytes() const {
  size_t total = header_filled_ + payload_.size();
  for (size_t i = complete_head_; i < complete_.size(); ++i) {
    total += complete_[i].size();
  }
  return total;
}

Status WriteFrame(int fd, const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxWireBytes) {
    return Status::InvalidArgument("frame exceeds kMaxWireBytes");
  }
  uint8_t header[4];
  const auto n = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(n >> (8 * i));
  }
  auto write_all = [fd](const uint8_t* data, size_t size) -> Status {
    size_t written = 0;
    while (written < size) {
      const ssize_t rc = ::write(fd, data + written, size - written);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("frame write failed: ") +
                                std::strerror(errno));
      }
      written += static_cast<size_t>(rc);
    }
    return Status::OK();
  };
  QLOVE_RETURN_NOT_OK(write_all(header, sizeof(header)));
  return write_all(payload.data(), payload.size());
}

Result<std::vector<uint8_t>> ReadFrame(int fd, size_t max_frame_bytes) {
  // The same state machine the nonblocking transports drive, fed with
  // exact-sized blocking reads: NextReadSize never asks for a byte beyond
  // the current frame, so consecutive ReadFrame calls on one fd stay
  // frame-aligned with no cross-call state.
  FrameReader reader(max_frame_bytes);
  uint8_t chunk[4096];
  bool read_any = false;
  std::vector<uint8_t> frame;
  while (true) {
    if (reader.PopFrame(&frame)) return frame;
    const size_t want = std::min(reader.NextReadSize(), sizeof(chunk));
    const ssize_t rc = ::read(fd, chunk, want);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("frame read failed: ") +
                              std::strerror(errno));
    }
    if (rc == 0) {
      if (!read_any) {
        return Status::OutOfRange("end of stream");  // clean peer shutdown
      }
      return Status::Internal("frame read: unexpected end of stream");
    }
    read_any = true;
    QLOVE_RETURN_NOT_OK(reader.Append(chunk, static_cast<size_t>(rc)));
  }
}

}  // namespace engine
}  // namespace qlove
