// Copyright 2026 The QLOVE Reproduction Authors
// The agent's network half: connects to an AggregatorServer, runs the
// HELLO authentication, then delivers one frame per call — the delta-sync
// export loop (engine.h ExportCursor) with the transport failure modes
// handled where they belong: a dropped connection reconnects with
// exponential backoff and forces the next frame full (the cursor's
// optimism is void once the transport hiccups), and an aggregator NAK
// (ack.resync_required) retries immediately with a full frame.
//
// Deliberately synchronous: an agent exports once per Tick, so a blocking
// send/ack round-trip on the agent's own cadence needs no reactor. The
// socket still runs nonblocking with poll()-enforced deadlines, so a hung
// aggregator costs an agent at most io_timeout_ms per attempt, never a
// thread wedged in write().
//
// The same client ships aggregator re-exports up the tree: a host-tier
// daemon is just an AgentClient whose FrameProducer runs
// AggregatorEngine::Export through the same cursor protocol — see
// ForAggregator().

#ifndef QLOVE_NET_CLIENT_H_
#define QLOVE_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "net/protocol.h"

namespace qlove {
namespace net {

/// \brief AgentClient configuration.
struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Shared secret presented in the HELLO.
  std::string auth_token;

  /// This agent's source name: the HELLO identity, the name stamped on
  /// frames by the producer, and the key of the aggregator's per-source
  /// state.
  std::string source;

  int connect_timeout_ms = 2000;
  /// Deadline for each blocking send/recv step (a hung peer costs at most
  /// this per delivery attempt).
  int io_timeout_ms = 5000;

  /// Reconnect backoff: starts at initial and grows per consecutive
  /// failure with DECORRELATED JITTER — each retry sleeps the previous
  /// budget, then draws the next budget uniformly from
  /// [initial, previous * 3], capped at max — so a fleet of agents cut
  /// off by one aggregator restart reconnects spread out rather than in
  /// synchronized exponential waves. Resets to initial on a successful
  /// delivery.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;

  /// Connection/delivery attempts per DeliverOnce() before giving up and
  /// returning the failure (the caller's loop decides whether to keep
  /// trying next tick).
  int max_delivery_attempts = 8;

  size_t max_frame_bytes = engine::kMaxWireBytes;
};

/// \brief Delivers one producer frame per call over an authenticated
/// session, reconnecting and resyncing as needed. Use from one thread.
class AgentClient {
 public:
  /// Produces the next frame to ship. \p force_full is true when the
  /// receiver's held state must be assumed lost (fresh connection, or the
  /// previous frame was NAKed) — producers with delta state must resync.
  /// \p source is ClientOptions::source (single source of truth).
  using FrameProducer = std::function<Status(
      const std::string& source, bool force_full, std::vector<uint8_t>* out)>;

  /// The standard agent producer: TelemetryEngine::Export through an owned
  /// ExportCursor (full frame on force_full, delta otherwise). The engine
  /// must outlive the client.
  static FrameProducer ForEngine(const engine::TelemetryEngine* engine,
                                 engine::ExportOptions options = {});

  /// The tree-tier producer: AggregatorEngine::Export of the aggregator's
  /// pooled fleet state through an owned ExportCursor — full frame on
  /// force_full, delta otherwise, exactly like ForEngine. The aggregator
  /// must outlive the client.
  static FrameProducer ForAggregator(
      const engine::AggregatorEngine* aggregator,
      engine::ExportOptions options = {});

  AgentClient(ClientOptions options, FrameProducer producer);
  ~AgentClient();

  AgentClient(const AgentClient&) = delete;
  AgentClient& operator=(const AgentClient&) = delete;

  /// Produces and delivers one frame, blocking until it is acked (or
  /// until max_delivery_attempts connection attempts failed). Handles the
  /// whole protocol: connect + HELLO when disconnected (backoff between
  /// attempts), full-frame resync after reconnect, immediate full-frame
  /// retry on NAK. FailedPrecondition from a HELLO rejection (bad token:
  /// retrying harder will not help); otherwise the last transport error.
  Status DeliverOnce();

  /// Drops the next produced frame instead of sending it (the producer
  /// still runs, so an ExportCursor advances past the frame). This is the
  /// fault injection for the delta protocol: the aggregator never sees
  /// the frame, so the NEXT delta's base epoch disagrees and NAKs into a
  /// resync — exactly a frame lost in transit. With ForAggregator that
  /// holds when the fleet epoch advanced in between (engine.h
  /// ExportCursor).
  void set_testing_drop_next_frame() { testing_drop_next_frame_ = true; }

  /// Closes the current session (next DeliverOnce reconnects).
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// \brief Client-side transport counters (any thread).
  struct Counters {
    int64_t connects = 0;       ///< Sessions established (HELLO_OK).
    int64_t reconnects = 0;     ///< Sessions after the first.
    int64_t connect_failures = 0;
    int64_t hello_rejects = 0;
    int64_t frames_sent = 0;
    int64_t frames_dropped = 0;  ///< Fault-injected (testing) drops.
    int64_t acks = 0;           ///< Acks with applied set.
    int64_t naks = 0;           ///< Acks demanding resync.
    int64_t ack_errors = 0;     ///< Acks flagging a content error.
    int64_t resyncs = 0;        ///< Full frames forced (reconnect or NAK).
    int64_t retries = 0;        ///< Backoff sleeps taken (delivery attempts
                                ///< beyond each DeliverOnce's first).
    int64_t bytes_sent = 0;
  };
  Counters counters() const;

 private:
  Status EnsureConnected();
  Status Connect();
  /// One produce+send+ack round on the live connection.
  Status DeliverOnConnection();
  Status SendFramed(const std::vector<uint8_t>& payload);
  /// Blocks (poll deadline) until one complete frame arrives.
  Status ReadOneFrame(std::vector<uint8_t>* frame);
  Result<ControlFrame> ReadControl();
  void Disconnect();
  void SleepBackoff();

  ClientOptions options_;
  FrameProducer producer_;
  int fd_ = -1;
  engine::FrameReader reader_;
  uint64_t frames_sent_this_session_ = 0;
  bool need_full_ = true;
  bool testing_drop_next_frame_ = false;
  int backoff_ms_ = 0;
  std::mt19937_64 backoff_rng_;  ///< Per-client decorrelated-jitter draws.

  std::vector<uint8_t> frame_buf_;
  std::vector<uint8_t> control_buf_;

  std::atomic<int64_t> connects_{0};
  std::atomic<int64_t> connect_failures_{0};
  std::atomic<int64_t> hello_rejects_{0};
  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> frames_dropped_{0};
  std::atomic<int64_t> acks_{0};
  std::atomic<int64_t> naks_{0};
  std::atomic<int64_t> ack_errors_{0};
  std::atomic<int64_t> resyncs_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> bytes_sent_{0};
};

}  // namespace net
}  // namespace qlove

#endif  // QLOVE_NET_CLIENT_H_
