#ifndef FEDREC_SHARD_FEDERATION_SERVICE_H_
#define FEDREC_SHARD_FEDERATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fed/client.h"
#include "fed/config.h"
#include "model/mf_model.h"
#include "net/deadline_wheel.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/liveness.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "shard/transport.h"

/// \file
/// FederationService: the coordinator's serving loop for socket-deployed
/// federation. Real (or load-generated) clients connect over TCP and push
/// kClientUpload frames, each carrying one FRWU upload; the service decodes
/// them in place from reused connection buffers into recycled ClientUpdate
/// slots, and when `round_size` uploads have landed it closes the round with
/// the same ServerRound the sharded round engine runs (route -> shard
/// aggregation through the pluggable ShardTransport — the in-process server
/// or fedrec_shardd processes over TCP -> merge -> apply to the model), then
/// sends one kRoundAck (carrying the round id) per contributed upload.
/// Steady state — same round size, same-shaped uploads — touches the heap
/// zero times on the upload fan-in and round paths.
///
/// The service is the high-concurrency half of the deployment story: a
/// single epoll loop sustains thousands of concurrent client connections
/// (`service_fanin` in benchmark/ measures rounds/s and round-latency
/// percentiles against it), while shard fan-out behind it reuses the engine's
/// retry/fallback delivery loop, so a dead shardd degrades the round instead
/// of wedging it.

namespace fedrec {

class FederationService {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;        ///< 0 = pick a free port (see port())
    std::size_t round_size = 0;    ///< uploads that close a round (> 0)
    AggregatorOptions aggregator;
    float learning_rate = 0.01f;
    ShardRetryPolicy retry;        ///< shard delivery retry/backoff policy
    std::size_t max_rounds = 0;    ///< stop after this many rounds (0 = none)
    /// Liveness knobs (see net/liveness.h); all default off, so the service
    /// behaves exactly as before liveness existed unless configured.
    LivenessOptions liveness;
    /// Per-connection frame payload cap (see FrameReader::set_max_payload).
    std::uint64_t max_frame_payload = kMaxFramePayload;
    /// Frames served per connection per loop turn before yielding (0 = off).
    std::size_t max_frames_per_drain = 64;
    /// Send-queue high water in bytes (0 = unbounded). A connection whose
    /// queue reaches this sheds further replies — one kRetryAfter is sent
    /// per breach and later frames are dropped until the peer drains — so a
    /// stalled reader bounds its own memory instead of growing the queue.
    std::size_t send_high_water = 0;
    /// Back-off hint carried in kRetryAfter payloads (milliseconds).
    std::uint32_t retry_after_ms = 50;
    /// SO_SNDBUF applied to accepted connections (0 = kernel default). The
    /// overload tests set 1 so a stalled peer blocks writes within a few
    /// frames instead of after megabytes of kernel buffering.
    int so_sndbuf = 0;
  };

  /// Serving counters. The inherited FaultStats is the shard-delivery
  /// ledger ServerRound folds into (corrupt replies, outages, retries,
  /// fallbacks), published as `fedrec_fault_*{scope="wire"}` at scrape time.
  struct Stats : FaultStats {
    std::uint64_t rounds_completed = 0;
    std::uint64_t uploads_received = 0;
    std::uint64_t upload_bytes = 0;
    std::uint64_t rejected_uploads = 0;   ///< kError replies sent
    std::uint64_t connections_accepted = 0;
    std::uint64_t heartbeats_sent = 0;    ///< idle probes emitted
    std::uint64_t peers_reaped = 0;       ///< half-open connections closed
    std::uint64_t slow_reads_closed = 0;  ///< partial-frame deadline closes
    std::uint64_t drain_deferrals = 0;    ///< fairness yields mid-drain
    std::uint64_t shed_frames = 0;        ///< replies dropped at high water
    std::uint64_t retry_afters_sent = 0;  ///< overload notices sent
  };

  /// `model` and `transport` are borrowed and must outlive the service;
  /// `transport`'s plan must cover the model's rows.
  FederationService(MfModel* model, ShardTransport* transport,
                    Options options);
  ~FederationService();
  FederationService(const FederationService&) = delete;
  FederationService& operator=(const FederationService&) = delete;

  /// Binds and listens; after OK, port() is the bound port.
  [[nodiscard]] Status Listen();
  std::uint16_t port() const { return port_; }

  /// Serves until RequestStop(), a kShutdown frame, or `max_rounds` rounds.
  void Run();

  /// Thread-safe stop signal (self-pipe wakeup into the event loop).
  void RequestStop();

  const Stats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    /// Bumped on every accept into this slot: an fd number the kernel
    /// recycles to a new peer gets a new generation.
    std::uint64_t generation = 0;
    FrameReader reader;
    SendQueue out;
    bool out_armed = false;      ///< EPOLLOUT currently in the epoll mask
    bool shed_notified = false;  ///< kRetryAfter sent for current breach
    PeerLiveness live;           ///< activity timestamps for the wheel
  };

  /// An upload's sender: its connection slot and the slot's generation at
  /// upload time, so an ack never reaches a later peer on a recycled fd.
  struct Participant {
    int fd = -1;
    std::uint64_t generation = 0;
  };

  void AcceptPending();
  void HandleConnectionEvent(int fd, std::uint32_t events);
  /// Serves complete frames buffered on `fd`, up to max_frames_per_drain
  /// (unbounded when `drain_all`); re-queues the connection on deferral.
  void ServeBufferedFrames(int fd, bool drain_all);
  /// Returns false when the connection must be closed.
  bool HandleFrame(int fd, Connection& conn, const FrameView& frame);
  bool HandleUpload(int fd, Connection& conn, std::string_view payload);
  /// Closes the pending round: one ServerRound over the transport, then an
  /// ack for every contributed upload whose sender is still connected.
  void RunRound();
  /// True when `conn`'s send queue is at high water: the caller must not
  /// stage its frame. Sends one kRetryAfter per breach.
  bool ShedIfOverloaded(Connection& conn);
  /// Serves a metrics scrape: mirrors Stats into the registry and replies
  /// with the full text exposition (never on the round path).
  bool HandleStatsRequest(Connection& conn);
  /// Republishes the serving counters as `fedrec_coord_*` gauges and the
  /// delivery ledger as `fedrec_fault_*{scope="wire"}`.
  void PublishStats();
  void SendError(Connection& conn, const Status& status);
  bool FlushConnection(Connection& conn);
  void CloseConnection(int fd);
  /// Re-arms (or disarms) `conn`'s slot on the deadline wheel.
  void ArmLiveness(Connection& conn);
  /// Acts on one due wheel deadline (probe / reap / slow-read close).
  void HandleDeadline(int fd, std::uint64_t now_ms);
  /// Poll timeout for the next loop turn (0 when deferred work is queued).
  int NextWaitTimeout() const;
  /// Orderly-stop drain: bounded flush window for queued acks/replies.
  void DrainOnStop();

  MfModel* model_;
  ShardTransport* transport_;
  Options options_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  EpollLoop loop_;
  std::atomic<bool> stop_{false};

  std::vector<std::unique_ptr<Connection>> conns_;  ///< indexed by fd
  std::vector<ClientUpdate> updates_;   ///< round_size recycled slots
  std::vector<Participant> participants_;  ///< sender of updates_[i]
  std::size_t pending_ = 0;             ///< filled prefix of updates_
  std::uint64_t round_ = 0;
  ServerRound server_round_;
  BinaryWriter scratch_;                ///< ack / error payload encode
  BinaryWriter shed_scratch_;           ///< kRetryAfter payload encode
  DeadlineWheel wheel_;                 ///< liveness deadlines keyed by fd
  std::vector<std::uint64_t> due_;      ///< ExpireDue scratch (reused)
  std::vector<int> deferred_;           ///< fds with frames still buffered
  std::vector<int> deferred_scratch_;   ///< swap buffer for the above
  Stats stats_;
  std::string stats_text_;              ///< kStatsReply render scratch
  /// Scrape-facing mirrors of Stats plus the probe round-trip histogram;
  /// registered once in the constructor.
  struct ServingMetrics {
    obs::Gauge* rounds_completed = nullptr;
    obs::Gauge* uploads_received = nullptr;
    obs::Gauge* upload_bytes = nullptr;
    obs::Gauge* rejected_uploads = nullptr;
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

#endif  // FEDREC_SHARD_FEDERATION_SERVICE_H_
