#ifndef FEDREC_NET_FRAME_SERVER_H_
#define FEDREC_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/deadline_wheel.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/liveness.h"
#include "net/socket.h"
#include "obs/metrics.h"

/// \file
/// FrameServer: the one nonblocking FRNT serving loop. fedrec_shardd
/// (ShardDaemon), the socket coordinator (FederationService) and
/// fedrec_coord's --stats-port endpoint all run it; each owner supplies only
/// its protocol frames through a Handler.
///
///   listen fd ──accept──▶ connection table (fd-indexed, slot generation
///        │                bumped per accept: PeerId = fd + generation)
///   self-pipe ──stop──▶       │ EPOLLIN: read → FrameReader reassembly
///                             ▼
///        fair drain: ≤ max_frames_per_drain frames per connection per turn,
///        the rest queued once for the turn's deferred pass
///                             │
///        loop frames: kHeartbeat (proof of life) · kShutdown (stop)
///                     kStatsRequest (scrape reply, never shed)
///        every other frame ──▶ Handler::HandleFrame(peer, frame)
///                             │ replies via Send(peer, ...): staged only,
///                             │ the connection joins the flush list once
///                             ▼
///        end of turn (after events, deadlines and the deferred pass):
///        one SendQueue flush per listed connection (EPOLLOUT armed while
///        blocked); optional high-water shedding with one kRetryAfter per
///        breach
///
/// A turn's replies to one connection thus leave in one send(), however
/// many frames the handler staged, and the loop never waits in epoll while a
/// writable connection holds staged bytes. A connection closed mid-turn (a
/// handler's refusal, a peer's half-close) gets one best-effort flush first,
/// so a reply staged just before the close still reaches the peer.
///
/// Beside the loop runs the liveness wheel (net/liveness.h: probe, reap,
/// slow-read close) and, on stop, a bounded drain that flushes every queued
/// reply. Steady state allocates nothing: connection slots, reassembly and
/// send buffers, the wheel, the deferred queue and the flush list are all
/// high-water sized.

namespace fedrec {

/// One accepted connection, named stably: its fd plus the generation its
/// slot had at accept time. A new peer on a recycled fd number gets a new
/// generation, so a PeerId held across a round never reaches it.
struct PeerId {
  int fd = -1;
  std::uint64_t generation = 0;
};

/// Counters the loop keeps for its owner (owners' Stats derive from this).
struct ServingStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t heartbeats_sent = 0;     ///< idle probes emitted
  std::uint64_t peers_reaped = 0;        ///< half-open connections closed
  std::uint64_t slow_reads_closed = 0;   ///< partial-frame deadline closes
  std::uint64_t drain_deferrals = 0;     ///< fairness yields mid-drain
};

/// The high-water shedding ledger; only an owner that sheds keeps one.
struct ShedStats {
  std::uint64_t shed_frames = 0;        ///< replies dropped at high water
  std::uint64_t retry_afters_sent = 0;  ///< overload notices sent
};

class FrameServer {
 public:
  /// The protocol half of a serving loop.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Serves one protocol frame (any type but the loop's kHeartbeat,
    /// kShutdown and kStatsRequest); `frame.payload` views the connection's
    /// reassembly buffer. Returns false to close the connection.
    virtual bool HandleFrame(PeerId peer, const FrameView& frame) = 0;
    /// Mirrors the owner's protocol counters into the registry; runs before
    /// every scrape render.
    virtual void PublishStats() = 0;
  };

  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = pick a free port (see port())
    LivenessOptions liveness;
    /// Per-connection frame payload cap (see FrameReader::set_max_payload).
    std::uint64_t max_frame_payload = kMaxFramePayload;
    /// Frames served per connection per loop turn before yielding to other
    /// connections (0 = unbounded).
    std::size_t max_frames_per_drain = 64;
    /// Send-queue high water in bytes (0 = unbounded); applies only when the
    /// server was given a ShedStats ledger.
    std::size_t send_high_water = 0;
    /// Back-off hint carried in kRetryAfter payloads (milliseconds).
    std::uint32_t retry_after_ms = 50;
    /// SO_SNDBUF applied to accepted connections (0 = kernel default).
    int so_sndbuf = 0;
    /// Stop semantics. true: every frame already buffered when the stop
    /// lands is still served, and its reply joins the stop drain. false:
    /// serving ends at once — a frame not yet served when the stop is
    /// requested is never served.
    bool serve_buffered_on_stop = false;
    /// Where ServingStats (and ShedStats) are published at scrape time:
    /// gauges `<metric_prefix><counter>{<metric_label>}` plus the probe
    /// round-trip histogram `fedrec_heartbeat_rtt_ms{<rtt_label>}`. An empty
    /// prefix publishes none of them.
    std::string metric_prefix;
    std::string metric_label;
    std::string rtt_label;
  };

  /// `handler` may be null: a scrape-only endpoint, where any frame other
  /// than the loop's own closes its connection. `stats` receives the loop's
  /// counters (null: kept internally). A non-null `shed` turns high-water
  /// shedding on and receives its ledger. All three are borrowed.
  explicit FrameServer(Options options, Handler* handler = nullptr,
                       ServingStats* stats = nullptr,
                       ShedStats* shed = nullptr);
  /// Stops and joins a RunOnThread() thread, then closes every socket.
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds and listens; after OK, port() is the bound port. Connects issued
  /// before Run() queue in the listen backlog.
  [[nodiscard]] Status Listen();
  std::uint16_t port() const { return port_; }

  /// Serves until RequestStop() or a kShutdown frame, then drains (see
  /// Options::serve_buffered_on_stop). Blocks the caller; may be re-entered.
  void Run();

  /// Run() on a thread the server owns — for a process whose own work is
  /// elsewhere (fedrec_coord --stats-port). The destructor joins it.
  void RunOnThread();

  /// Thread-safe, async-signal-safe stop signal (self-pipe wakeup).
  void RequestStop();

  /// Stages one frame for `peer`; one flush at the end of the loop turn
  /// sends every frame staged to the connection in that turn. A `peer`
  /// that is gone (closed, or its fd now serves a newer generation) is
  /// skipped. While shedding is on and the peer's queue is at high water,
  /// the queue is flushed first, and the frame is dropped (one kRetryAfter
  /// per breach) only if it stays there; a failure of that flush closes the
  /// connection. Serving thread only.
  void Send(PeerId peer, FrameType type,
            std::span<const std::string_view> pieces);

  /// Connections waiting in the deferred-drain queue; each is queued at
  /// most once. Serving thread only (tests read it from a Handler).
  std::size_t deferred_connections() const { return deferred_.size(); }

 private:
  struct Connection {
    int fd = -1;
    /// Bumped on every accept into this slot.
    std::uint64_t generation = 0;
    FrameReader reader;
    SendQueue out;
    bool out_armed = false;      ///< EPOLLOUT currently in the epoll mask
    bool shed_notified = false;  ///< kRetryAfter sent for current breach
    bool queued = false;         ///< in deferred_ for the next drain pass
    /// The slot's fd is in flush_list_. Kept across close and accept, so a
    /// slot is listed at most once per turn; the flush pass clears it.
    bool flush_listed = false;
    PeerLiveness live;           ///< activity timestamps for the wheel
  };

  /// The open connection `peer` names, or null.
  Connection* Find(PeerId peer);
  void AcceptPending();
  void HandleConnectionEvent(int fd, std::uint32_t events);
  /// Serves complete frames buffered on `conn`, up to max_frames_per_drain
  /// (unbounded when `drain_all`); queues the connection on deferral.
  void ServeBufferedFrames(Connection& conn, bool drain_all);
  /// Returns false when the connection must be closed.
  bool HandleFrame(Connection& conn, const FrameView& frame);
  /// Scrape reply: owner and loop counters mirrored, registry rendered.
  /// Never shed.
  void HandleStatsRequest(Connection& conn);
  void PublishServingStats();
  /// True when the caller must not stage its frame: `conn`'s queue is
  /// still at high water after a flush (one kRetryAfter per breach), or
  /// that flush failed and closed the connection.
  bool ShedIfOverloaded(Connection& conn);
  /// Puts `conn` on the end-of-turn flush list (once per turn).
  void ListForFlush(Connection& conn);
  /// The end-of-turn pass: flushes every listed connection once; a blocked
  /// one (EPOLLOUT armed) waits for its writable event instead.
  void FlushListed();
  /// Flushes the send queue and (de)arms EPOLLOUT to match.
  bool FlushConnection(Connection& conn);
  /// Gives staged bytes one best-effort flush, then closes the socket.
  void CloseConnection(Connection& conn);
  /// Re-arms (or disarms) `conn`'s slot on the deadline wheel.
  void ArmLiveness(Connection& conn);
  /// Acts on one due wheel deadline (probe / reap / slow-read close).
  void HandleDeadline(int fd, std::uint64_t now_ms);
  /// Poll timeout for the next loop turn: 0 while deferred drains are
  /// queued, time-to-next-deadline while the wheel is armed, else -1.
  int NextWaitTimeout() const;
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }
  /// Serves buffered frames (when configured) and gives every connection a
  /// bounded window to flush queued replies before Run() returns.
  void DrainOnStop();

  Options options_;
  Handler* handler_;
  ServingStats own_stats_;
  ServingStats* stats_;
  ShedStats* shed_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  EpollLoop loop_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< RunOnThread's serving thread

  std::vector<std::unique_ptr<Connection>> conns_;  ///< indexed by fd
  DeadlineWheel wheel_;                   ///< liveness deadlines keyed by fd
  std::vector<std::uint64_t> due_;        ///< ExpireDue scratch (reused)
  std::vector<PeerId> deferred_;          ///< drains cut short last turn
  std::vector<PeerId> deferred_scratch_;  ///< swap buffer for the above
  /// fds with frames staged this turn, flush_count_ of them; sized with
  /// conns_, and each slot is listed at most once, so it never grows while
  /// serving.
  std::vector<int> flush_list_;
  std::size_t flush_count_ = 0;
  std::string stats_text_;                ///< kStatsReply render scratch

  /// Scrape-facing mirrors of ServingStats/ShedStats plus the probe
  /// round-trip histogram; registered once in the constructor (all null
  /// when Options::metric_prefix is empty).
  struct ServingMetrics {
    obs::Gauge* connections_accepted = nullptr;
    obs::Gauge* heartbeats_sent = nullptr;
    obs::Gauge* peers_reaped = nullptr;
    obs::Gauge* slow_reads_closed = nullptr;
    obs::Gauge* drain_deferrals = nullptr;
    obs::Gauge* shed_frames = nullptr;
    obs::Gauge* retry_afters_sent = nullptr;
    obs::Histogram* heartbeat_rtt_ms = nullptr;
  };
  ServingMetrics metrics_;
};

}  // namespace fedrec

#endif  // FEDREC_NET_FRAME_SERVER_H_
