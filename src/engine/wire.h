// Copyright 2026 The QLOVE Reproduction Authors
// The process-boundary seam: a versioned, self-describing binary encoding
// for the engine's mergeable window state, so per-host agents can ship
// their summaries to a central aggregator (the paper's datacenter fleet
// deployment — sketch locally, merge centrally; the same agent->collector
// topology production monitoring systems use). One frame carries an
// agent's export: its identity, its Tick epoch, and for every metric the
// full MetricOptions (window spec, phi grid, backend configuration) plus
// each shard's BackendSummary — enough for a remote AggregatorEngine to
// rebuild the exact merge the agent's own Query layer would run, few-k
// plan layout included, with no out-of-band configuration channel.
//
// Format rules (version 2):
//  - Magic "QLWF", a little-endian u16 version, then one flags byte; bit 0
//    marks a DELTA frame (below), all other bits must be zero.
//  - Integers (counts, epochs, lengths, weights) are LEB128 varints —
//    unsigned (VarU) or zigzag-signed (VarI) — with minimal encoding
//    enforced on decode, so every value has exactly one byte form and
//    encode(decode(x)) is byte-identical (the round trip the golden
//    fixtures pin down).
//  - Doubles use a tagged coder keyed by the low 2 bits of a varint
//    header. Tag 0: the value is a small integer, stored zigzag. Tag 1:
//    circllhist-style log-linear — the value is mantissa * 10^exponent
//    bit-exactly (one varint mantissa + one biased-exponent byte), which
//    covers everything the 3-significant-digit quantizer emits. Tag 2:
//    raw IEEE-754 bits, the escape hatch (NaN, -0.0, unquantized means).
//    The encoder picks the cheapest valid tag deterministically, so the
//    byte form is still a pure function of the double's bits.
//  - Sub-window epochs are encoded as a first absolute value plus
//    non-negative deltas (they are non-decreasing by construction).
//  - Every variable-length count is checked against the remaining buffer
//    before any allocation: a truncated or hostile buffer yields an error
//    Status, never UB or an unbounded reserve.
//  - Decoding is strict: unknown backend kinds, out-of-range enums, or
//    non-0/1 booleans are InvalidArgument, so a corrupt byte cannot decode
//    to a normalized-but-different re-encoding.
//  - Engine exports are shard-COALESCED (one summary per metric; see
//    engine/coalesce.h). The format encodes any shard count — aggregator
//    re-exports carry one summary per contributing source.
//
// A full frame is a delta with no base: every metric rides whole, and
// both decode into one WireFrame whose full-frame records are all kFull.
// DELTA frames (flags bit 0) carry only what the receiver has not
// seen: sub-window summaries are epoch-stamped and expire from the front,
// so a delta against base_epoch B ships, per metric, the first live epoch
// (the receiver trims older sub-windows) plus the sub-windows newer than
// what B covered, and refreshed scalar state. The metric list is
// authoritative: a held metric absent from the delta was unregistered.
// Both frame types carry an 8-byte engine-incarnation sync token
// (after source): Tick epochs restart at 1 on agent restart, so base
// epochs can collide numerically across incarnations — a delta applies
// only when its token matches the one that established the held state.
// Any mismatch on the receiver (unknown source, base epoch or sync token
// disagreement, incompatible held state) is NOT an error — the receiver
// NAKs and the agent falls back to a full frame (engine.h ExportCursor).
//
// Versioning: DecodeFrame accepts version 2 only. Any other version —
// including the retired fixed-width version 1 — is rejected with an
// InvalidArgument Status before a single length field is read, so version
// skew is a config error surfaced loudly, not silently misparsed. Agents
// and aggregators deploy in lockstep.

#ifndef QLOVE_ENGINE_WIRE_H_
#define QLOVE_ENGINE_WIRE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "engine/metric_key.h"
#include "engine/registry.h"

namespace qlove {
namespace engine {

/// First 4 bytes of every encoded snapshot: "QLWF".
inline constexpr uint8_t kWireMagic[4] = {'Q', 'L', 'W', 'F'};

/// The wire version: varint/zigzag integers, tagged log-linear doubles,
/// and the delta-frame flag. The only version DecodeFrame accepts.
inline constexpr uint16_t kWireVersionV2 = 2;

/// Flags byte: bit 0 marks a delta frame; other bits reserved and must be
/// zero.
inline constexpr uint8_t kWireFlagDelta = 0x01;

/// Decoded frames larger than this are rejected before allocation (a
/// hostile length prefix must not turn into a multi-GB reserve).
inline constexpr size_t kMaxWireBytes = size_t{64} << 20;

/// \brief One metric's window state as shipped on the wire: identity, the
/// full serving configuration, and its mergeable summaries.
struct WireMetricSummary {
  MetricKey key;
  /// The agent-side MetricOptions, verbatim: window spec, phi grid, and
  /// backend configuration. Self-describing so the aggregator can rebuild
  /// the agent's exact merge (few-k plan layout, epsilon budgets) without
  /// an out-of-band registry.
  MetricOptions options;
  /// The mergeable summaries: exactly one (shard-coalesced) in an engine
  /// export, one per contributing source in an aggregator re-export.
  std::vector<BackendSummary> shards;
};

/// \brief One source's whole window state at one Tick epoch: what an
/// aggregator holds per source (AggregatorEngine::SourceSnapshot), and
/// what EncodeSnapshotV2 writes as a full frame (the WAL checkpoint).
struct WireSnapshot {
  std::string source;
  int64_t epoch = 0;
  /// The token of the frames that built this state (WireFrame::sync_token).
  uint64_t sync_token = 0;
  /// Every metric, in canonical key order.
  std::vector<WireMetricSummary> metrics;
};

/// \name Full frames and delta frames
/// @{

/// How one metric rides in a frame (agent exports and aggregator
/// re-exports alike: both run ExportCursor's one diff, engine/engine.h).
/// Every metric of a full frame rides kFull; only a delta frame's records
/// carry the mode byte.
enum class WireDeltaMode : uint8_t {
  /// Full replacement: options + every shard summary, exactly as in a
  /// full frame. Used for non-qlove backends (their entry payloads are
  /// window-scoped, not epoch-addressable) and for metrics the sender has
  /// not shipped before.
  kFull = 0,
  /// Qlove incremental: the receiver trims held sub-windows older than
  /// first_live_epoch, appends the new sub-windows, and refreshes the
  /// scalar fields. Per single-summary metric only: the held metric must
  /// be one qlove summary (an agent's coalesced export, or a key an
  /// aggregator holds from one source). Keys an aggregator pools from
  /// several sources carry one summary per source and ride kFull.
  kQloveDelta = 1,
};

/// \brief One metric's record in a frame.
struct WireMetricDelta {
  MetricKey key;
  WireDeltaMode mode = WireDeltaMode::kFull;

  /// kFull payload (mirrors WireMetricSummary).
  MetricOptions options;
  std::vector<BackendSummary> shards;

  /// kQloveDelta payload: held sub-windows with epoch < first_live_epoch
  /// have expired from the sender's window and must be trimmed.
  int64_t first_live_epoch = 0;
  /// Refreshed scalar state of the (single, coalesced) summary.
  int64_t count = 0;
  int64_t inflight = 0;
  bool burst_active = false;
  double rank_error = 0.0;
  /// Sub-windows the receiver has not seen, oldest first; every epoch must
  /// exceed the receiver's newest held epoch for this metric (it NAKs
  /// otherwise and the sender resyncs with a full frame).
  std::vector<core::SubWindowSummary> new_subwindows;
};

/// \brief One decoded frame. A full frame is a delta against nothing: it
/// carries every metric whole (kFull), and the receiver replaces the
/// source's held state with it; a delta frame patches the state held at
/// base_epoch.
struct WireFrame {
  /// Flags bit 0: a delta against base_epoch rather than a full frame.
  bool is_delta = false;
  /// Agent identity (host name, pod id, ...). The aggregator keys its
  /// per-source state by this string.
  std::string source;
  /// Engine-incarnation token (random per TelemetryEngine construction,
  /// never zero for engine exports). A delta may only patch state
  /// established by a full frame with the same token: Tick epochs restart
  /// at 1 when an agent restarts, so an epoch match alone cannot prove the
  /// receiver holds the state a delta was diffed against.
  uint64_t sync_token = 0;
  /// The sender's Tick epoch when the frame was taken; the aggregator's
  /// staleness accounting compares these across sources.
  int64_t epoch = 0;
  /// Delta frames only: the epoch of the sender's previous frame (full or
  /// delta). The receiver NAKs when its held epoch for this source
  /// disagrees. 0 in a full frame.
  int64_t base_epoch = 0;
  /// The sender's complete metric list (authoritative: a held metric
  /// absent here was unregistered), in canonical key order. Every record
  /// of a full frame is kFull.
  std::vector<WireMetricDelta> metrics;
};

/// \brief Streams one frame into a caller-owned buffer: the header and
/// metric count, then one record per metric, written straight from the
/// summaries the caller holds — no WireSnapshot or WireFrame is built.
/// Every record layout of the format is written here and nowhere else;
/// EncodeSnapshotV2, EncodeFrame and ExportCursor (engine/engine.h) all
/// drive this writer.
///
/// Usage: construct over the buffer (its contents are replaced, its
/// capacity kept, so a reused buffer stops allocating at steady state),
/// call FullHeader or DeltaHeader once with the metric count, then write
/// exactly that many metrics in canonical key order. Sub-window epochs
/// must be non-decreasing within each summary.
class FrameWriter {
 public:
  /// An unbound writer; assign a bound one before use.
  FrameWriter() = default;
  explicit FrameWriter(std::vector<uint8_t>* out);

  void FullHeader(std::string_view source, uint64_t sync_token, int64_t epoch,
                  size_t num_metrics);
  /// \p base_epoch is the epoch of the frame the delta was diffed against.
  void DeltaHeader(std::string_view source, uint64_t sync_token,
                   int64_t epoch, int64_t base_epoch, size_t num_metrics);

  /// One whole metric — a full frame's record, or a kFull entry in a
  /// delta frame (the header chose which): key, options and every
  /// summary. \p inflight, when set, is written in place of each
  /// summary's own `inflight` (an agent reads its backlog live per
  /// export).
  void WholeMetric(const MetricKey& key, const MetricOptions& options,
                   std::span<const BackendSummary* const> shards,
                   std::optional<int64_t> inflight = std::nullopt);

  /// One kQloveDelta entry of a delta frame: the scalar refresh of the
  /// metric's single qlove summary plus the sub-windows the receiver has
  /// not seen, oldest first.
  void QloveDeltaMetric(const MetricKey& key, int64_t first_live_epoch,
                        int64_t count, int64_t inflight, bool burst_active,
                        double rank_error,
                        std::span<const core::SubWindowSummary> fresh);

 private:
  std::vector<uint8_t>* out_ = nullptr;
  bool delta_ = false;
};

/// \brief Encodes \p snapshot as a full frame into \p out (replacing its
/// contents, keeping its capacity) through FrameWriter.
void EncodeSnapshotV2(const WireSnapshot& snapshot, std::vector<uint8_t>* out);
std::vector<uint8_t> EncodeSnapshotV2(const WireSnapshot& snapshot);

/// \brief Encodes \p frame — a full frame when !is_delta (every metric
/// must then be kFull), else a delta frame — through FrameWriter. Same
/// buffer contract as EncodeSnapshotV2.
void EncodeFrame(const WireFrame& frame, std::vector<uint8_t>* out);
std::vector<uint8_t> EncodeFrame(const WireFrame& frame);

/// \brief The tagged-double coder every frame value goes through, exposed
/// so tests can hold its integer fast path to the exhaustive exponent
/// scan. Both append one value's bytes to \p out.
namespace wire_internal {
/// The coder frames use: integers below 2^52 in magnitude skip the scan.
void EncodeValue(double v, std::vector<uint8_t>* out);
/// The reference coder: scans every decimal exponent for any value.
void EncodeValueByScan(double v, std::vector<uint8_t>* out);
}  // namespace wire_internal

/// \brief Decodes a full or delta frame. InvalidArgument on bad magic, any
/// version but 2, unknown flag bits, truncation, out-of-range enums,
/// hostile length prefixes, or trailing bytes — decoding never reads past
/// \p size and never trusts a length it has not checked against the
/// remaining bytes.
Result<WireFrame> DecodeFrame(const uint8_t* data, size_t size);
Result<WireFrame> DecodeFrame(const std::vector<uint8_t>& buffer);

/// @}

/// \brief A fresh engine-incarnation token: random-looking, never zero.
/// TelemetryEngine stamps one into every export (WireFrame::sync_token)
/// and AggregatorEngine stamps one into its re-exports, so delta receivers
/// can tell a restarted sender apart from a continued stream when Tick
/// epochs collide numerically.
uint64_t GenerateSyncToken();

/// \name Frame transport
///
/// Minimal length-prefixed framing over a byte-stream file descriptor
/// (pipe, socketpair, TCP socket): u32 little-endian payload length, then
/// the payload. The blocking WriteFrame/ReadFrame pair below serves simple
/// synchronous loops; nonblocking transports (src/net/) feed whatever
/// bytes arrive into a FrameReader and drain complete frames as they
/// close. Both paths share the same header parse and the same hostile-
/// length cap, so a 4 GB length prefix is rejected before any allocation
/// no matter which path carried it.
/// @{

/// \brief Incremental decoder for the length-prefixed framing: feed it
/// byte chunks of any size (a nonblocking read's worth, or one byte at a
/// time) and pop complete frames as they finish. The state machine is
/// trivially resumable — a short read or EAGAIN mid-frame just means the
/// next Append continues where the last one stopped — which is exactly
/// what the old blocking ReadFrame could not do.
///
/// Not thread-safe; one FrameReader per connection.
class FrameReader {
 public:
  /// Frames whose length prefix exceeds \p max_frame_bytes are rejected
  /// by Append BEFORE any payload allocation.
  explicit FrameReader(size_t max_frame_bytes = kMaxWireBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Consumes \p size bytes from the stream. InvalidArgument as soon as a
  /// complete header declares a length above the cap — the connection is
  /// poisoned and every later Append fails the same way (a stream cannot
  /// resynchronize past a frame it refused to buffer).
  Status Append(const uint8_t* data, size_t size);

  /// Moves the oldest complete frame into \p frame (replacing its
  /// contents, capacity reused). False when no complete frame is buffered.
  bool PopFrame(std::vector<uint8_t>* frame);

  /// How many bytes the reader needs to complete what it is parsing: the
  /// rest of the 4-byte header, or the rest of the current payload (0 when
  /// a complete frame is waiting to be popped). Blocking callers use this
  /// to read exactly one frame's bytes and not a byte more.
  size_t NextReadSize() const;

  /// Bytes buffered but not yet popped (header-in-progress + payloads).
  size_t buffered_bytes() const;

 private:
  size_t max_frame_bytes_;
  Status poisoned_ = Status::OK();  ///< Sticky first Append failure.
  /// Header accumulation (little-endian u32 length prefix).
  uint8_t header_[4] = {0, 0, 0, 0};
  size_t header_filled_ = 0;
  bool in_payload_ = false;
  size_t payload_target_ = 0;       ///< Declared length of current frame.
  std::vector<uint8_t> payload_;    ///< Current frame, partially filled.
  std::vector<std::vector<uint8_t>> complete_;  ///< Popped FIFO, oldest first.
  size_t complete_head_ = 0;        ///< Index of the oldest unpopped frame.
};

/// Writes one frame, handling short writes and EINTR. The frame must not
/// exceed kMaxWireBytes. The fd must be in blocking mode (EAGAIN is an
/// error here); nonblocking senders buffer through src/net/ instead.
Status WriteFrame(int fd, const std::vector<uint8_t>& payload);

/// Reads one frame (blocking), driving a FrameReader with exact-sized
/// reads so it never consumes bytes beyond the frame it returns. OutOfRange
/// on clean end-of-stream at a frame boundary (the peer closed);
/// InvalidArgument on a hostile length prefix (above \p max_frame_bytes);
/// Internal on a mid-frame EOF or read error.
Result<std::vector<uint8_t>> ReadFrame(int fd,
                                       size_t max_frame_bytes = kMaxWireBytes);

/// @}

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_WIRE_H_
