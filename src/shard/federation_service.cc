#include "shard/federation_service.h"

#include <unistd.h>

#include <array>
#include <chrono>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "obs/stats_bridge.h"
#include "shard/shard_protocol.h"
#include "shard/wire.h"

namespace fedrec {

namespace {

/// Socket reads land in chunks of this size; each connection's frame buffer
/// high-waters at the largest upload plus one chunk.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Cap on the poll timeout while deadlines are armed.
constexpr std::uint64_t kMaxWaitMs = 60 * 1000;

/// Orderly-stop drain budget: flush attempts per connection, 1 ms apart.
constexpr int kDrainFlushAttempts = 200;

}  // namespace

FederationService::FederationService(MfModel* model, ShardTransport* transport,
                                     Options options)
    : model_(model), transport_(transport), options_(std::move(options)) {
  FEDREC_CHECK(model_ != nullptr);
  FEDREC_CHECK(transport_ != nullptr);
  FEDREC_CHECK_GT(options_.round_size, 0u);
  FEDREC_CHECK_EQ(transport_->server().plan().num_items(),
                  model_->num_items());
  FEDREC_CHECK_EQ(transport_->server().dim(), model_->dim());
  updates_.resize(options_.round_size);
  for (ClientUpdate& update : updates_) {
    update.item_gradients.Reset(model_->dim());
  }
  participants_.assign(options_.round_size, Participant{});
  // One-time metric registration (never on the upload or round paths).
  obs::Registry& registry = obs::Registry::Global();
  metrics_.rounds_completed = registry.GetGauge("fedrec_coord_rounds_completed");
  metrics_.uploads_received = registry.GetGauge("fedrec_coord_uploads_received");
  metrics_.upload_bytes = registry.GetGauge("fedrec_coord_upload_bytes");
  metrics_.rejected_uploads = registry.GetGauge("fedrec_coord_rejected_uploads");
  metrics_.connections_accepted =
      registry.GetGauge("fedrec_coord_connections_accepted");
  metrics_.heartbeats_sent = registry.GetGauge("fedrec_coord_heartbeats_sent");
  metrics_.peers_reaped = registry.GetGauge("fedrec_coord_peers_reaped");
  metrics_.slow_reads_closed =
      registry.GetGauge("fedrec_coord_slow_reads_closed");
  metrics_.drain_deferrals = registry.GetGauge("fedrec_coord_drain_deferrals");
  metrics_.shed_frames = registry.GetGauge("fedrec_coord_shed_frames");
  metrics_.retry_afters_sent =
      registry.GetGauge("fedrec_coord_retry_afters_sent");
  metrics_.heartbeat_rtt_ms =
      registry.GetHistogram("fedrec_heartbeat_rtt_ms", "shard=\"coord\"");
  int pipe_fds[2];
  FEDREC_CHECK_EQ(::pipe(pipe_fds), 0) << "self-pipe creation failed";
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetNonBlocking(wake_read_).CheckOK();
  SetNonBlocking(wake_write_).CheckOK();
}

FederationService::~FederationService() {
  for (std::unique_ptr<Connection>& conn : conns_) {
    if (conn != nullptr) CloseSocket(conn->fd);
  }
  CloseSocket(listen_fd_);
  CloseSocket(wake_read_);
  CloseSocket(wake_write_);
}

Status FederationService::Listen() {
  FEDREC_CHECK(listen_fd_ < 0) << "Listen() called twice";
  // The backlog must absorb a whole fleet of bench clients connecting at
  // once; the kernel clamps to somaxconn.
  Result<int> fd = TcpListen(options_.host, options_.port, /*backlog=*/4096);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  Status status = SetNonBlocking(listen_fd_);
  if (status.ok()) {
    Result<std::uint16_t> bound = BoundPort(listen_fd_);
    if (bound.ok()) {
      port_ = bound.value();
    } else {
      status = bound.status();
    }
  }
  if (!status.ok()) CloseSocket(listen_fd_);
  return status;
}

void FederationService::RequestStop() {
  stop_.store(true, std::memory_order_release);
  const char byte = 0;
  const ssize_t written = ::write(wake_write_, &byte, 1);
  (void)written;  // a full pipe already guarantees a pending wakeup
}

int FederationService::NextWaitTimeout() const {
  if (!deferred_.empty()) return 0;  // buffered frames are ready work
  std::uint64_t next = 0;
  if (!wheel_.NextDeadline(next)) return -1;
  const std::uint64_t now = MonotonicMillis();
  if (next <= now) return 0;
  const std::uint64_t gap = next - now;
  return static_cast<int>(gap < kMaxWaitMs ? gap : kMaxWaitMs);
}

void FederationService::Run() {
  FEDREC_CHECK(listen_fd_ >= 0) << "Listen() must succeed before Run()";
  loop_.Watch(listen_fd_, EPOLLIN, static_cast<std::uint64_t>(listen_fd_))
      .CheckOK();
  loop_.Watch(wake_read_, EPOLLIN, static_cast<std::uint64_t>(wake_read_))
      .CheckOK();
  while (!stop_.load(std::memory_order_acquire)) {
    const std::span<const epoll_event> events = loop_.Wait(NextWaitTimeout());
    for (const epoll_event& event : events) {
      const int fd = static_cast<int>(event.data.u64);
      if (fd == wake_read_) {
        char drain[64];
        while (::read(wake_read_, drain, sizeof(drain)) > 0) {
        }
        continue;  // stop_ is checked by the loop condition
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      HandleConnectionEvent(fd, event.events);
    }
    if (wheel_.armed_count() > 0) {
      const std::uint64_t now = MonotonicMillis();
      due_.clear();
      wheel_.ExpireDue(now, due_);
      for (const std::uint64_t tag : due_) {
        HandleDeadline(static_cast<int>(tag), now);
      }
    }
    if (!deferred_.empty()) {
      deferred_scratch_.swap(deferred_);
      for (const int fd : deferred_scratch_) {
        ServeBufferedFrames(fd, /*drain_all=*/false);
      }
      deferred_scratch_.clear();
    }
  }
  DrainOnStop();
  loop_.Remove(listen_fd_);
  loop_.Remove(wake_read_);
}

void FederationService::AcceptPending() {
  for (;;) {
    int fd = -1;
    if (!TcpAccept(listen_fd_, fd).ok()) return;
    if (fd < 0) return;  // backlog drained
    if (!SetNonBlocking(fd).ok()) {
      CloseSocket(fd);
      continue;
    }
    if (options_.so_sndbuf > 0 &&
        !SetSendBuffer(fd, options_.so_sndbuf).ok()) {
      CloseSocket(fd);
      continue;
    }
    if (static_cast<std::size_t>(fd) >= conns_.size()) {
      conns_.resize(static_cast<std::size_t>(fd) + 1);
    }
    std::unique_ptr<Connection>& slot = conns_[static_cast<std::size_t>(fd)];
    if (slot == nullptr) slot = std::make_unique<Connection>();
    slot->fd = fd;
    ++slot->generation;
    slot->reader.Reset();
    slot->reader.set_max_payload(options_.max_frame_payload);
    slot->out.Reset();
    slot->out_armed = false;
    slot->shed_notified = false;
    slot->live = PeerLiveness{};
    if (!loop_.Watch(fd, EPOLLIN, static_cast<std::uint64_t>(fd)).ok()) {
      CloseSocket(slot->fd);
      continue;
    }
    if (options_.liveness.enabled()) {
      slot->live.last_activity_ms = MonotonicMillis();
      ArmLiveness(*slot);
    }
    ++stats_.connections_accepted;
  }
}

void FederationService::HandleConnectionEvent(int fd, std::uint32_t events) {
  if (static_cast<std::size_t>(fd) >= conns_.size()) return;
  Connection* conn = conns_[static_cast<std::size_t>(fd)].get();
  if (conn == nullptr || conn->fd != fd) return;  // stale event after close
  if ((events & EPOLLOUT) != 0 && !FlushConnection(*conn)) {
    CloseConnection(fd);
    return;
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;

  bool peer_closed = false;
  std::size_t received = 0;
  for (;;) {
    char* tail = conn->reader.PrepareWrite(kReadChunk);
    ReadOutcome outcome;
    if (!ReadSome(fd, tail, conn->reader.writable(), outcome).ok()) {
      CloseConnection(fd);
      return;
    }
    conn->reader.CommitWrite(outcome.bytes);
    received += outcome.bytes;
    if (outcome.eof) {
      peer_closed = true;
      break;
    }
    if (outcome.would_block) break;
  }
  if (options_.liveness.enabled() && received > 0) {
    // Any inbound byte is proof of life: reset the silence window and allow
    // the next idle gap its own (single) probe.
    const std::uint64_t now = MonotonicMillis();
    if (conn->live.probe_sent && now >= conn->live.probe_sent_ms) {
      // First activity after a probe ~ probe round trip (observe-only).
      metrics_.heartbeat_rtt_ms->Observe(now - conn->live.probe_sent_ms);
    }
    conn->live.last_activity_ms = now;
    conn->live.probe_sent = false;
  }
  // A closing peer gets its buffered frames served in full (nothing more is
  // coming, so fairness deferral would strand them).
  ServeBufferedFrames(fd, /*drain_all=*/peer_closed);
  if (conn->fd != fd) return;  // serving closed the connection
  if (peer_closed) {
    CloseConnection(fd);
    return;
  }
  if (options_.liveness.enabled()) {
    // Track the age of a partially buffered frame for the read deadline.
    if (conn->reader.pending() > 0) {
      if (conn->live.read_start_ms == 0) {
        conn->live.read_start_ms = MonotonicMillis();
      }
    } else {
      conn->live.read_start_ms = 0;
    }
    ArmLiveness(*conn);
  }
}

void FederationService::ServeBufferedFrames(int fd, bool drain_all) {
  if (static_cast<std::size_t>(fd) >= conns_.size()) return;
  Connection* conn = conns_[static_cast<std::size_t>(fd)].get();
  if (conn == nullptr || conn->fd != fd) return;  // closed since queued
  std::size_t served = 0;
  for (;;) {
    if (!drain_all && options_.max_frames_per_drain != 0 &&
        served >= options_.max_frames_per_drain) {
      // Yield: other connections get the loop before this one's backlog.
      ++stats_.drain_deferrals;
      deferred_.push_back(fd);
      return;
    }
    FrameView frame;
    bool has_frame = false;
    if (!conn->reader.Next(frame, has_frame).ok()) {
      CloseConnection(fd);  // unframeable bytes: nothing left to trust
      return;
    }
    if (!has_frame) return;
    ++served;
    if (!HandleFrame(fd, *conn, frame)) {
      CloseConnection(fd);
      return;
    }
    if (conn->fd != fd) return;  // RunRound closed this connection
  }
}

bool FederationService::HandleFrame(int fd, Connection& conn,
                                    const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kClientUpload:
      return HandleUpload(fd, conn, frame.payload);
    case FrameType::kShutdown:
      stop_.store(true, std::memory_order_release);
      return true;
    case FrameType::kHeartbeat:
      // Proof of life only; the byte-level activity refresh already ran.
      return true;
    case FrameType::kStatsRequest:
      return HandleStatsRequest(conn);
    default:
      return false;  // clients send only uploads (and shutdown in tests)
  }
}

void FederationService::PublishStats() {
  metrics_.rounds_completed->Set(
      static_cast<std::int64_t>(stats_.rounds_completed));
  metrics_.uploads_received->Set(
      static_cast<std::int64_t>(stats_.uploads_received));
  metrics_.upload_bytes->Set(static_cast<std::int64_t>(stats_.upload_bytes));
  metrics_.rejected_uploads->Set(
      static_cast<std::int64_t>(stats_.rejected_uploads));
  metrics_.connections_accepted->Set(
      static_cast<std::int64_t>(stats_.connections_accepted));
  metrics_.heartbeats_sent->Set(
      static_cast<std::int64_t>(stats_.heartbeats_sent));
  metrics_.peers_reaped->Set(static_cast<std::int64_t>(stats_.peers_reaped));
  metrics_.slow_reads_closed->Set(
      static_cast<std::int64_t>(stats_.slow_reads_closed));
  metrics_.drain_deferrals->Set(
      static_cast<std::int64_t>(stats_.drain_deferrals));
  metrics_.shed_frames->Set(static_cast<std::int64_t>(stats_.shed_frames));
  metrics_.retry_afters_sent->Set(
      static_cast<std::int64_t>(stats_.retry_afters_sent));
  obs::PublishFaultStats(stats_, "wire");
}

bool FederationService::HandleStatsRequest(Connection& conn) {
  PublishStats();
  stats_text_.clear();
  obs::Registry::Global().RenderText(stats_text_);
  const std::array<std::string_view, 1> pieces = {
      std::string_view(stats_text_)};
  conn.out.AppendFrame(FrameType::kStatsReply, pieces);
  return FlushConnection(conn);
}

// fedrec:hot — upload fan-in: one FRWU decode in place from the connection
// buffer into a recycled ClientUpdate slot. Thousands of clients per round
// land here; no copies of the payload, no heap growth.
bool FederationService::HandleUpload(int fd, Connection& conn,
                                     std::string_view payload) {
  ClientUpdate& slot = updates_[pending_];
  BinaryReader reader = BinaryReader::View(payload);
  Result<std::uint64_t> source = DecodeUpload(reader, slot.item_gradients);
  Status status = source.ok() ? Status::OK() : source.status();
  if (status.ok() && !reader.exhausted()) {
    status = Status::Corruption("trailing bytes after FRWU upload");
  }
  if (status.ok() && slot.item_gradients.cols() != model_->dim()) {
    status = Status::Corruption("upload dimension mismatch");
  }
  if (!status.ok()) {
    // The frame layer already delimited the message, so a bad upload is
    // recoverable: reject it and keep the connection.
    ++stats_.rejected_uploads;
    SendError(conn, status);
    return FlushConnection(conn);
  }
  slot.user = static_cast<std::uint32_t>(source.value());
  slot.loss = 0.0;
  slot.pair_count = 0;
  participants_[pending_] = Participant{fd, conn.generation};
  ++pending_;
  ++stats_.uploads_received;
  stats_.upload_bytes += payload.size();
  if (pending_ == options_.round_size) RunRound();
  return true;
}

void FederationService::RunRound() {
  // The service keeps no virtual clock, so the returned backoff is unused.
  server_round_.Run(
      *transport_,
      std::span<const ClientUpdate>(updates_.data(), options_.round_size),
      options_.aggregator, options_.retry, round_, options_.learning_rate,
      *model_, /*pool=*/nullptr, stats_);
  ++stats_.rounds_completed;

  // Ack every contributed upload on the connection that sent it. A sender
  // that left mid-round is skipped, and so is a new peer the kernel handed
  // the same fd number (its slot carries a newer generation).
  scratch_.Clear();
  scratch_.WriteU64(round_);
  ++round_;
  for (Participant& participant : participants_) {
    const Participant sender = participant;
    participant = Participant{};
    if (sender.fd < 0 ||
        static_cast<std::size_t>(sender.fd) >= conns_.size()) {
      continue;
    }
    Connection* conn = conns_[static_cast<std::size_t>(sender.fd)].get();
    if (conn == nullptr || conn->fd != sender.fd ||
        conn->generation != sender.generation) {
      continue;
    }
    if (!ShedIfOverloaded(*conn)) {
      const std::array<std::string_view, 1> pieces = {
          std::string_view(scratch_.buffer())};
      conn->out.AppendFrame(FrameType::kRoundAck, pieces);
    }
    if (!FlushConnection(*conn)) CloseConnection(sender.fd);
  }
  pending_ = 0;
  if (options_.max_rounds != 0 &&
      stats_.rounds_completed >= options_.max_rounds) {
    stop_.store(true, std::memory_order_release);
  }
}

// fedrec:hot — checked before every staged reply on the ack fan-out path.
bool FederationService::ShedIfOverloaded(Connection& conn) {
  if (options_.send_high_water == 0 ||
      conn.out.pending() < options_.send_high_water) {
    return false;
  }
  // High water: the peer is not draining. Stop growing its queue — every
  // further reply is shed — and tell it once per breach to back off. The
  // connection itself survives; a peer that resumes reading drains the
  // queue and service resumes.
  ++stats_.shed_frames;
  if (!conn.shed_notified) {
    conn.shed_notified = true;
    ++stats_.retry_afters_sent;
    shed_scratch_.Clear();
    shed_scratch_.WriteU32(options_.retry_after_ms);
    const std::array<std::string_view, 1> pieces = {
        std::string_view(shed_scratch_.buffer())};
    conn.out.AppendFrame(FrameType::kRetryAfter, pieces);
  }
  return true;
}

void FederationService::SendError(Connection& conn, const Status& status) {
  if (ShedIfOverloaded(conn)) return;
  scratch_.Clear();
  EncodeErrorPayload(status, scratch_);
  const std::array<std::string_view, 1> pieces = {
      std::string_view(scratch_.buffer())};
  conn.out.AppendFrame(FrameType::kError, pieces);
}

bool FederationService::FlushConnection(Connection& conn) {
  bool blocked = false;
  if (!conn.out.Flush(conn.fd, blocked).ok()) return false;
  if (conn.shed_notified &&
      conn.out.pending() < options_.send_high_water) {
    conn.shed_notified = false;  // drained below high water: breach over
  }
  if (blocked != conn.out_armed) {
    const std::uint32_t events =
        blocked ? (EPOLLIN | EPOLLOUT) : static_cast<std::uint32_t>(EPOLLIN);
    if (!loop_.Modify(conn.fd, events, static_cast<std::uint64_t>(conn.fd))
             .ok()) {
      return false;
    }
    conn.out_armed = blocked;
  }
  return true;
}

void FederationService::CloseConnection(int fd) {
  Connection* conn = conns_[static_cast<std::size_t>(fd)].get();
  loop_.Remove(fd);
  wheel_.Disarm(static_cast<std::uint64_t>(fd));
  CloseSocket(conn->fd);
  conn->reader.Reset();
  conn->out.Reset();
  conn->out_armed = false;
  conn->shed_notified = false;
  conn->live = PeerLiveness{};
}

// fedrec:hot — re-armed on every inbound byte of every connection.
void FederationService::ArmLiveness(Connection& conn) {
  const std::uint64_t tag = static_cast<std::uint64_t>(conn.fd);
  const std::uint64_t next = NextLivenessDeadline(options_.liveness, conn.live);
  if (next == 0) {
    wheel_.Disarm(tag);
  } else {
    wheel_.Arm(tag, next);
  }
}

void FederationService::HandleDeadline(int fd, std::uint64_t now_ms) {
  if (static_cast<std::size_t>(fd) >= conns_.size()) return;
  Connection* conn = conns_[static_cast<std::size_t>(fd)].get();
  if (conn == nullptr || conn->fd != fd) return;  // closed since expiry
  switch (ClassifyDeadline(options_.liveness, conn->live, now_ms)) {
    case LivenessVerdict::kSlowRead:
      ++stats_.slow_reads_closed;
      CloseConnection(fd);
      return;
    case LivenessVerdict::kReap:
      ++stats_.peers_reaped;
      CloseConnection(fd);
      return;
    case LivenessVerdict::kProbe:
      conn->live.probe_sent = true;
      conn->live.probe_sent_ms = now_ms;
      ++stats_.heartbeats_sent;
      if (!ShedIfOverloaded(*conn)) {
        conn->out.AppendFrame(FrameType::kHeartbeat, {});
      }
      if (!FlushConnection(*conn)) {
        CloseConnection(fd);
        return;
      }
      break;
    case LivenessVerdict::kNone:
      break;  // state changed between arming and expiry
  }
  ArmLiveness(*conn);
}

void FederationService::DrainOnStop() {
  // Orderly-stop drain (SIGTERM / kShutdown / max_rounds): give every
  // connection a bounded window to flush queued acks, so clients of a
  // gracefully stopped service see their final round acknowledged.
  for (std::unique_ptr<Connection>& slot : conns_) {
    if (slot == nullptr || slot->fd < 0) continue;
    for (int attempt = 0; attempt < kDrainFlushAttempts; ++attempt) {
      if (slot->out.empty()) break;
      bool blocked = false;
      if (!slot->out.Flush(slot->fd, blocked).ok()) break;
      if (blocked) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
}

}  // namespace fedrec
