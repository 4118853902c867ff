#include "net/frame_server.h"

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/stopwatch.h"

namespace fedrec {

namespace {

/// Socket reads land in chunks of this size; each connection's frame buffer
/// high-waters at the largest frame plus one chunk.
constexpr std::size_t kReadChunk = 64 * 1024;

/// The backlog must absorb a whole fleet of clients connecting at once; the
/// kernel clamps it to somaxconn.
constexpr int kListenBacklog = 4096;

/// Cap on the poll timeout while deadlines are armed, so a clock hiccup can
/// never park the loop much past the next wheel revolution.
constexpr std::uint64_t kMaxWaitMs = 60 * 1000;

/// Stop drain budget: flush attempts per connection, 1 ms apart.
constexpr int kDrainFlushAttempts = 200;

}  // namespace

FrameServer::FrameServer(Options options, Handler* handler,
                         ServingStats* stats, ShedStats* shed)
    : options_(std::move(options)),
      handler_(handler),
      stats_(stats != nullptr ? stats : &own_stats_),
      shed_(shed) {
  if (!options_.metric_prefix.empty()) {
    // One-time metric registration (allocates name strings; never on the
    // serving path).
    obs::Registry& registry = obs::Registry::Global();
    const auto gauge = [&](std::string_view counter) {
      std::string name = options_.metric_prefix;
      name += counter;
      return registry.GetGauge(name, options_.metric_label);
    };
    metrics_.connections_accepted = gauge("connections_accepted");
    metrics_.heartbeats_sent = gauge("heartbeats_sent");
    metrics_.peers_reaped = gauge("peers_reaped");
    metrics_.slow_reads_closed = gauge("slow_reads_closed");
    metrics_.drain_deferrals = gauge("drain_deferrals");
    if (shed_ != nullptr) {
      metrics_.shed_frames = gauge("shed_frames");
      metrics_.retry_afters_sent = gauge("retry_afters_sent");
    }
    metrics_.heartbeat_rtt_ms =
        registry.GetHistogram("fedrec_heartbeat_rtt_ms", options_.rtt_label);
  }
  int pipe_fds[2];
  FEDREC_CHECK_EQ(::pipe(pipe_fds), 0) << "self-pipe creation failed";
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetNonBlocking(wake_read_).CheckOK();
  SetNonBlocking(wake_write_).CheckOK();
}

FrameServer::~FrameServer() {
  if (thread_.joinable()) {
    RequestStop();
    thread_.join();
  }
  for (std::unique_ptr<Connection>& conn : conns_) {
    if (conn != nullptr) CloseSocket(conn->fd);
  }
  CloseSocket(listen_fd_);
  CloseSocket(wake_read_);
  CloseSocket(wake_write_);
}

Status FrameServer::Listen() {
  FEDREC_CHECK(listen_fd_ < 0) << "Listen() called twice";
  Result<int> fd = TcpListen(options_.host, options_.port, kListenBacklog);
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

void FrameServer::RequestStop() {
  stop_.store(true, std::memory_order_release);
  const char byte = 0;
  const ssize_t written = ::write(wake_write_, &byte, 1);
  (void)written;  // a full pipe already guarantees a pending wakeup
}

void FrameServer::RunOnThread() {
  FEDREC_CHECK(!thread_.joinable()) << "RunOnThread() called twice";
  thread_ = std::thread([this] { Run(); });
}

int FrameServer::NextWaitTimeout() const {
  if (!deferred_.empty()) return 0;  // buffered frames are ready work
  std::uint64_t next = 0;
  if (!wheel_.NextDeadline(next)) return -1;
  const std::uint64_t now = MonotonicMillis();
  if (next <= now) return 0;
  const std::uint64_t gap = next - now;
  return static_cast<int>(gap < kMaxWaitMs ? gap : kMaxWaitMs);
}

void FrameServer::Run() {
  FEDREC_CHECK(listen_fd_ >= 0) << "Listen() must succeed before Run()";
  loop_.Watch(listen_fd_, EPOLLIN, static_cast<std::uint64_t>(listen_fd_))
      .CheckOK();
  loop_.Watch(wake_read_, EPOLLIN, static_cast<std::uint64_t>(wake_read_))
      .CheckOK();
  while (!stop_requested()) {
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
      // Serve the connections whose drain was cut short, after fresh socket
      // events — round-robin fairness between busy connections.
      deferred_scratch_.swap(deferred_);
      for (const PeerId peer : deferred_scratch_) {
        Connection* conn = Find(peer);
        if (conn == nullptr) continue;  // closed since queued
        conn->queued = false;
        ServeBufferedFrames(*conn, /*drain_all=*/false);
      }
      deferred_scratch_.clear();
    }
    FlushListed();
  }
  DrainOnStop();
  // Leave connections to the destructor (a stopped server may still be
  // inspected); deregister the long-lived fds so Run() can be re-entered.
  loop_.Remove(listen_fd_);
  loop_.Remove(wake_read_);
}

FrameServer::Connection* FrameServer::Find(PeerId peer) {
  if (peer.fd < 0 || static_cast<std::size_t>(peer.fd) >= conns_.size()) {
    return nullptr;
  }
  Connection* conn = conns_[static_cast<std::size_t>(peer.fd)].get();
  if (conn == nullptr || conn->fd != peer.fd ||
      conn->generation != peer.generation) {
    return nullptr;
  }
  return conn;
}

void FrameServer::AcceptPending() {
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
      flush_list_.resize(conns_.size());
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
    slot->queued = false;
    slot->live = PeerLiveness{};
    if (!loop_.Watch(fd, EPOLLIN, static_cast<std::uint64_t>(fd)).ok()) {
      CloseSocket(slot->fd);
      continue;
    }
    if (options_.liveness.enabled()) {
      slot->live.last_activity_ms = MonotonicMillis();
      ArmLiveness(*slot);
    }
    ++stats_->connections_accepted;
  }
}

void FrameServer::HandleConnectionEvent(int fd, std::uint32_t events) {
  if (static_cast<std::size_t>(fd) >= conns_.size()) return;
  Connection* conn = conns_[static_cast<std::size_t>(fd)].get();
  if (conn == nullptr || conn->fd != fd) return;  // stale event after close
  if ((events & EPOLLOUT) != 0 && !FlushConnection(*conn)) {
    CloseConnection(*conn);
    return;
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;

  // Drain the socket into the connection's reassembly buffer, then serve
  // complete frames. A peer close is honoured only after the buffered
  // frames are served, so a shutdown frame followed by close still lands.
  bool peer_closed = false;
  std::size_t received = 0;
  for (;;) {
    char* tail = conn->reader.PrepareWrite(kReadChunk);
    ReadOutcome outcome;
    if (!ReadSome(fd, tail, conn->reader.writable(), outcome).ok()) {
      CloseConnection(*conn);
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
    if (conn->live.probe_sent && now >= conn->live.probe_sent_ms &&
        metrics_.heartbeat_rtt_ms != nullptr) {
      // First activity after a probe ~ probe round trip (observe-only).
      metrics_.heartbeat_rtt_ms->Observe(now - conn->live.probe_sent_ms);
    }
    conn->live.last_activity_ms = now;
    conn->live.probe_sent = false;
  }
  // A closing peer gets its buffered frames served in full (nothing more is
  // coming, so fairness deferral would strand them). A connection already
  // queued for this turn's deferred pass is served there, once.
  if (peer_closed || !conn->queued) {
    ServeBufferedFrames(*conn, /*drain_all=*/peer_closed);
  }
  if (conn->fd != fd) return;  // serving closed the connection
  if (peer_closed) {
    CloseConnection(*conn);
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

void FrameServer::ServeBufferedFrames(Connection& conn, bool drain_all) {
  const int fd = conn.fd;
  std::size_t served = 0;
  for (;;) {
    if (!options_.serve_buffered_on_stop && stop_requested()) return;
    if (!drain_all && options_.max_frames_per_drain != 0 &&
        served >= options_.max_frames_per_drain) {
      // Yield: other connections get the loop before this one's backlog.
      ++stats_->drain_deferrals;
      if (!conn.queued) {
        conn.queued = true;
        deferred_.push_back(PeerId{fd, conn.generation});
      }
      return;
    }
    FrameView frame;
    bool has_frame = false;
    if (!conn.reader.Next(frame, has_frame).ok()) {
      CloseConnection(conn);  // unframeable bytes: nothing left to trust
      return;
    }
    if (!has_frame) return;
    ++served;
    if (!HandleFrame(conn, frame)) {
      if (conn.fd == fd) CloseConnection(conn);
      return;
    }
    if (conn.fd != fd) return;  // a failed shedding flush closed it
  }
}

bool FrameServer::HandleFrame(Connection& conn, const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kShutdown:
      stop_.store(true, std::memory_order_release);
      return true;
    case FrameType::kHeartbeat:
      // Proof of life only; the byte-level activity refresh already ran.
      return true;
    case FrameType::kStatsRequest:
      // Served pre-handshake too: scrapers never touch protocol state.
      HandleStatsRequest(conn);
      return true;
    default:
      return handler_ != nullptr &&
             handler_->HandleFrame(PeerId{conn.fd, conn.generation}, frame);
  }
}

void FrameServer::HandleStatsRequest(Connection& conn) {
  if (handler_ != nullptr) handler_->PublishStats();
  PublishServingStats();
  stats_text_.clear();
  obs::Registry::Global().RenderText(stats_text_);
  const std::array<std::string_view, 1> pieces = {
      std::string_view(stats_text_)};
  conn.out.AppendFrame(FrameType::kStatsReply, pieces);
  ListForFlush(conn);
}

void FrameServer::PublishServingStats() {
  if (metrics_.connections_accepted == nullptr) return;
  metrics_.connections_accepted->Set(
      static_cast<std::int64_t>(stats_->connections_accepted));
  metrics_.heartbeats_sent->Set(
      static_cast<std::int64_t>(stats_->heartbeats_sent));
  metrics_.peers_reaped->Set(static_cast<std::int64_t>(stats_->peers_reaped));
  metrics_.slow_reads_closed->Set(
      static_cast<std::int64_t>(stats_->slow_reads_closed));
  metrics_.drain_deferrals->Set(
      static_cast<std::int64_t>(stats_->drain_deferrals));
  if (shed_ != nullptr) {
    metrics_.shed_frames->Set(static_cast<std::int64_t>(shed_->shed_frames));
    metrics_.retry_afters_sent->Set(
        static_cast<std::int64_t>(shed_->retry_afters_sent));
  }
}

// fedrec:hot — every reply, ack and probe is staged here.
void FrameServer::Send(PeerId peer, FrameType type,
                       std::span<const std::string_view> pieces) {
  Connection* conn = Find(peer);
  if (conn == nullptr) return;
  if (!ShedIfOverloaded(*conn)) conn->out.AppendFrame(type, pieces);
  if (conn->fd == peer.fd) ListForFlush(*conn);
}

// fedrec:hot — checked before every staged reply.
bool FrameServer::ShedIfOverloaded(Connection& conn) {
  if (shed_ == nullptr || options_.send_high_water == 0 ||
      conn.out.pending() < options_.send_high_water) {
    return false;
  }
  // Replies staged earlier in this turn have not met the socket yet; they
  // are no stalled peer's backlog. Judge the queue after a flush.
  if (!FlushConnection(conn)) {
    CloseConnection(conn);
    return true;
  }
  if (conn.out.pending() < options_.send_high_water) return false;
  // High water: the peer is not draining. Stop growing its queue — every
  // further reply is shed — and tell it once per breach to back off. The
  // connection itself survives; a peer that resumes reading drains the
  // queue and service resumes.
  ++shed_->shed_frames;
  if (!conn.shed_notified) {
    conn.shed_notified = true;
    ++shed_->retry_afters_sent;
    char payload[sizeof(std::uint32_t)];
    std::memcpy(payload, &options_.retry_after_ms, sizeof(payload));
    const std::array<std::string_view, 1> pieces = {
        std::string_view(payload, sizeof(payload))};
    conn.out.AppendFrame(FrameType::kRetryAfter, pieces);
  }
  return true;
}

// fedrec:hot — once per staged frame; flush_list_ is sized with conns_.
void FrameServer::ListForFlush(Connection& conn) {
  if (conn.flush_listed) return;
  conn.flush_listed = true;
  flush_list_[flush_count_++] = conn.fd;
}

// fedrec:hot — once per loop turn.
void FrameServer::FlushListed() {
  for (std::size_t i = 0; i < flush_count_; ++i) {
    const int fd = flush_list_[i];
    Connection& conn = *conns_[static_cast<std::size_t>(fd)];
    conn.flush_listed = false;
    // Closed since listed (its queue was reset), or blocked: EPOLLOUT
    // flushes it once the socket drains.
    if (conn.fd != fd || conn.out.empty() || conn.out_armed) continue;
    if (!FlushConnection(conn)) CloseConnection(conn);
  }
  flush_count_ = 0;
}

bool FrameServer::FlushConnection(Connection& conn) {
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

void FrameServer::CloseConnection(Connection& conn) {
  if (!conn.out.empty()) {
    // Replies are flushed at the end of the turn, so a close mid-turn (a
    // refused handshake's kError, the answers to a half-closed peer's last
    // frames) would drop them: give them one nonblocking try first.
    bool blocked = false;
    (void)conn.out.Flush(conn.fd, blocked);
  }
  loop_.Remove(conn.fd);
  wheel_.Disarm(static_cast<std::uint64_t>(conn.fd));
  CloseSocket(conn.fd);
  conn.reader.Reset();
  conn.out.Reset();
  conn.out_armed = false;
  conn.shed_notified = false;
  conn.live = PeerLiveness{};
}

// fedrec:hot — re-armed on every inbound byte of every connection.
void FrameServer::ArmLiveness(Connection& conn) {
  const std::uint64_t tag = static_cast<std::uint64_t>(conn.fd);
  const std::uint64_t next = NextLivenessDeadline(options_.liveness, conn.live);
  if (next == 0) {
    wheel_.Disarm(tag);
  } else {
    wheel_.Arm(tag, next);
  }
}

void FrameServer::HandleDeadline(int fd, std::uint64_t now_ms) {
  if (static_cast<std::size_t>(fd) >= conns_.size()) return;
  Connection* conn = conns_[static_cast<std::size_t>(fd)].get();
  if (conn == nullptr || conn->fd != fd) return;  // closed since expiry
  switch (ClassifyDeadline(options_.liveness, conn->live, now_ms)) {
    case LivenessVerdict::kSlowRead:
      // A frame has trickled for longer than the read deadline: the peer is
      // holding reassembly state hostage (half-open or malicious).
      ++stats_->slow_reads_closed;
      CloseConnection(*conn);
      return;
    case LivenessVerdict::kReap:
      ++stats_->peers_reaped;
      CloseConnection(*conn);
      return;
    case LivenessVerdict::kProbe:
      conn->live.probe_sent = true;
      conn->live.probe_sent_ms = now_ms;
      ++stats_->heartbeats_sent;
      Send(PeerId{fd, conn->generation}, FrameType::kHeartbeat, {});
      if (conn->fd != fd) return;  // a shedding flush failed and closed it
      break;
    case LivenessVerdict::kNone:
      break;  // state changed between arming and expiry
  }
  ArmLiveness(*conn);
}

void FrameServer::DrainOnStop() {
  // Orderly-stop drain (SIGTERM / kShutdown / owner stop): buffered frames
  // are served when the owner asks for it — their replies join the send
  // queue — and each connection then gets a bounded window to flush. No new
  // bytes are read; a peer mid-request sees an orderly close.
  for (std::unique_ptr<Connection>& slot : conns_) {
    if (slot == nullptr || slot->fd < 0) continue;
    if (options_.serve_buffered_on_stop) {
      const int fd = slot->fd;
      ServeBufferedFrames(*slot, /*drain_all=*/true);
      if (slot->fd != fd) continue;  // serving closed the connection
    }
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
