// Copyright 2026 The QLOVE Reproduction Authors

#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

namespace qlove {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// Waits for \p events on \p fd. OK when ready; Internal on timeout or
/// poll failure (both mean the delivery attempt is dead).
Status PollFor(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (rc == 0) return Status::Internal("io timeout");
    return Status::OK();
  }
}

/// The delta-sync producer over either engine's Export: the cursor lives
/// with the producer, one delta stream per client.
template <typename Exporter>
AgentClient::FrameProducer CursorProducer(const Exporter* exporter,
                                          engine::ExportOptions options) {
  auto cursor = std::make_shared<engine::ExportCursor>();
  return [exporter, options, cursor](const std::string& source,
                                     bool force_full,
                                     std::vector<uint8_t>* out) {
    if (force_full) cursor->RequestResync();
    return exporter->Export(source, cursor.get(), out, options);
  };
}

}  // namespace

AgentClient::FrameProducer AgentClient::ForEngine(
    const engine::TelemetryEngine* engine, engine::ExportOptions options) {
  return CursorProducer(engine, options);
}

AgentClient::FrameProducer AgentClient::ForAggregator(
    const engine::AggregatorEngine* aggregator,
    engine::ExportOptions options) {
  return CursorProducer(aggregator, options);
}

AgentClient::AgentClient(ClientOptions options, FrameProducer producer)
    : options_(std::move(options)),
      producer_(std::move(producer)),
      backoff_ms_(options_.backoff_initial_ms),
      backoff_rng_(std::random_device{}() ^
                   (reinterpret_cast<uintptr_t>(this) << 1)) {}

AgentClient::~AgentClient() { Close(); }

void AgentClient::Close() { Disconnect(); }

AgentClient::Counters AgentClient::counters() const {
  Counters counters;
  counters.connects = connects_.load(std::memory_order_relaxed);
  counters.reconnects = counters.connects > 0 ? counters.connects - 1 : 0;
  counters.connect_failures =
      connect_failures_.load(std::memory_order_relaxed);
  counters.hello_rejects = hello_rejects_.load(std::memory_order_relaxed);
  counters.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  counters.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  counters.acks = acks_.load(std::memory_order_relaxed);
  counters.naks = naks_.load(std::memory_order_relaxed);
  counters.ack_errors = ack_errors_.load(std::memory_order_relaxed);
  counters.resyncs = resyncs_.load(std::memory_order_relaxed);
  counters.retries = retries_.load(std::memory_order_relaxed);
  counters.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  return counters;
}

Status AgentClient::DeliverOnce() {
  Status last = Status::OK();
  for (int attempt = 0; attempt < options_.max_delivery_attempts; ++attempt) {
    if (attempt > 0) SleepBackoff();
    last = EnsureConnected();
    if (!last.ok()) {
      // A rejected HELLO is configuration, not weather: retrying the same
      // token harder only floods the server's auth_failures counter.
      if (last.code() == Status::Code::kFailedPrecondition) return last;
      continue;
    }
    last = DeliverOnConnection();
    if (last.ok()) {
      backoff_ms_ = options_.backoff_initial_ms;
      return last;
    }
    Disconnect();
  }
  return last;
}

Status AgentClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  const Status status = Connect();
  if (!status.ok()) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    Disconnect();
  }
  return status;
}

Status AgentClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host address: " +
                                   options_.host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return Errno("connect");
    QLOVE_RETURN_NOT_OK(PollFor(fd_, POLLOUT, options_.connect_timeout_ms));
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::Internal(std::string("connect: ") + std::strerror(err));
    }
  }

  // Session state resets with the transport: a fresh connection means the
  // ack-sequence count restarts and the first frame must be full (we
  // cannot know what the server still holds — it may have restarted).
  reader_ = engine::FrameReader(options_.max_frame_bytes);
  frames_sent_this_session_ = 0;
  need_full_ = true;

  ControlFrame hello;
  hello.type = ControlType::kHello;
  hello.version = kProtocolVersion;
  hello.token = options_.auth_token;
  hello.source = options_.source;
  EncodeControlFrame(hello, &control_buf_);
  QLOVE_RETURN_NOT_OK(SendFramed(control_buf_));

  auto reply = ReadControl();
  if (!reply.ok()) return reply.status();
  const ControlFrame& verdict = reply.ValueOrDie();
  if (verdict.type == ControlType::kHelloReject) {
    hello_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition("hello rejected: " + verdict.reason);
  }
  if (verdict.type != ControlType::kHelloOk) {
    return Status::Internal("unexpected reply to hello");
  }
  connects_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status AgentClient::DeliverOnConnection() {
  bool force_full = need_full_;
  for (int round = 0; round < 2; ++round) {
    if (force_full) resyncs_.fetch_add(1, std::memory_order_relaxed);
    QLOVE_RETURN_NOT_OK(
        producer_(options_.source, force_full, &frame_buf_));
    need_full_ = false;
    if (testing_drop_next_frame_) {
      // The producer ran (its cursor advanced) but the bytes vanish: the
      // wire ate the frame. The aggregator will NAK the next delta.
      testing_drop_next_frame_ = false;
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    QLOVE_RETURN_NOT_OK(SendFramed(frame_buf_));
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    frames_sent_this_session_ += 1;

    auto reply = ReadControl();
    if (!reply.ok()) return reply.status();
    const ControlFrame& ack = reply.ValueOrDie();
    if (ack.type != ControlType::kAck) {
      return Status::Internal("expected ACK, got other control frame");
    }
    if (ack.seq != frames_sent_this_session_) {
      // The two ends disagree on how many frames this session carried:
      // the stream is out of sync and only a reconnect is safe.
      return Status::Internal(
          "ack sequence mismatch: sent " +
          std::to_string(frames_sent_this_session_) + ", acked " +
          std::to_string(ack.seq));
    }
    if (ack.error) {
      // Content the aggregator refused outright; a resync would ship the
      // same bytes. Surface it, keep the session.
      ack_errors_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (ack.resync_required) {
      naks_.fetch_add(1, std::memory_order_relaxed);
      force_full = true;
      continue;  // immediate full-frame retry on the same connection
    }
    acks_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  // A full frame cannot NAK (it replaces state wholesale); two rounds of
  // resync_required means the peer is misbehaving.
  return Status::Internal("aggregator NAKed a full frame");
}

Status AgentClient::SendFramed(const std::vector<uint8_t>& payload) {
  if (payload.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument("frame exceeds max_frame_bytes");
  }
  const uint32_t n = static_cast<uint32_t>(payload.size());
  const uint8_t header[4] = {
      static_cast<uint8_t>(n & 0xff), static_cast<uint8_t>((n >> 8) & 0xff),
      static_cast<uint8_t>((n >> 16) & 0xff),
      static_cast<uint8_t>((n >> 24) & 0xff)};
  const uint8_t* chunks[2] = {header, payload.data()};
  const size_t sizes[2] = {sizeof(header), payload.size()};
  for (int part = 0; part < 2; ++part) {
    size_t sent = 0;
    while (sent < sizes[part]) {
      const ssize_t rc = ::write(fd_, chunks[part] + sent, sizes[part] - sent);
      if (rc < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          QLOVE_RETURN_NOT_OK(PollFor(fd_, POLLOUT, options_.io_timeout_ms));
          continue;
        }
        return Errno("write");
      }
      sent += static_cast<size_t>(rc);
      bytes_sent_.fetch_add(rc, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status AgentClient::ReadOneFrame(std::vector<uint8_t>* frame) {
  uint8_t chunk[4096];
  while (!reader_.PopFrame(frame)) {
    QLOVE_RETURN_NOT_OK(PollFor(fd_, POLLIN, options_.io_timeout_ms));
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n == 0) return Status::Internal("peer closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("read");
    }
    QLOVE_RETURN_NOT_OK(reader_.Append(chunk, static_cast<size_t>(n)));
  }
  return Status::OK();
}

Result<ControlFrame> AgentClient::ReadControl() {
  std::vector<uint8_t> frame;
  QLOVE_RETURN_NOT_OK(ReadOneFrame(&frame));
  return DecodeControlFrame(frame);
}

void AgentClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void AgentClient::SleepBackoff() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms_));
  // Decorrelated jitter: sleep = min(max, U(initial, prev*3)). A fleet of
  // agents knocked over by one aggregator restart reconnects spread out
  // instead of in synchronized exponential waves — plain doubling keeps
  // every client on the same schedule and re-stampedes the listener at
  // each power of two.
  const int low = options_.backoff_initial_ms;
  const int high = std::max(low, backoff_ms_ > options_.backoff_max_ms / 3
                                     ? options_.backoff_max_ms
                                     : backoff_ms_ * 3);
  backoff_ms_ = std::min(
      options_.backoff_max_ms,
      std::uniform_int_distribution<int>(low, high)(backoff_rng_));
}

}  // namespace net
}  // namespace qlove
