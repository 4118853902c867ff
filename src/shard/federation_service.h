#ifndef FEDREC_SHARD_FEDERATION_SERVICE_H_
#define FEDREC_SHARD_FEDERATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fed/client.h"
#include "fed/config.h"
#include "data/serialize.h"
#include "model/mf_model.h"
#include "net/frame_server.h"
#include "obs/metrics.h"
#include "shard/transport.h"

/// \file
/// FederationService: the coordinator's protocol for socket-deployed
/// federation, run on the shared FrameServer loop (net/frame_server.h). Real
/// (or load-generated) clients connect over TCP and push kClientUpload
/// frames, each carrying one FRWU upload; the service decodes
/// them in place from reused connection buffers into recycled ClientUpdate
/// slots, and when `round_size` uploads have landed it closes the round with
/// the same ServerRound the sharded round engine runs (route -> shard
/// aggregation through the pluggable ShardTransport — the in-process server
/// or fedrec_shardd processes over TCP -> merge -> apply to the model), then
/// sends one kRoundAck (carrying the round id) per contributed upload.
/// Steady state — same round size, same-shaped uploads — touches the heap
/// zero times on the upload fan-in and round paths.
///
/// The service is the high-concurrency half of the deployment story: one
/// epoll loop sustains thousands of concurrent client connections
/// (`service_fanin` in benchmark/ measures rounds/s and round-latency
/// percentiles against it), while shard fan-out behind it reuses the engine's
/// retry/fallback delivery loop, so a dead shardd degrades the round instead
/// of wedging it.

namespace fedrec {

class FederationService : private FrameServer::Handler {
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
  /// fallbacks), published as `fedrec_fault_*{scope="wire"}` at scrape time;
  /// ServingStats and ShedStats are the loop's.
  struct Stats : FaultStats, ServingStats, ShedStats {
    std::uint64_t rounds_completed = 0;
    std::uint64_t uploads_received = 0;
    std::uint64_t upload_bytes = 0;
    std::uint64_t rejected_uploads = 0;   ///< kError replies sent
  };

  /// `model` and `transport` are borrowed and must outlive the service;
  /// `transport`'s plan must cover the model's rows.
  FederationService(MfModel* model, ShardTransport* transport,
                    Options options);
  FederationService(const FederationService&) = delete;
  FederationService& operator=(const FederationService&) = delete;

  /// Binds and listens; after OK, port() is the bound port.
  [[nodiscard]] Status Listen() { return loop_.Listen(); }
  std::uint16_t port() const { return loop_.port(); }

  /// Serves until RequestStop(), a kShutdown frame, or `max_rounds` rounds;
  /// uploads still buffered when the stop lands are never served.
  void Run() { loop_.Run(); }

  /// Thread-safe stop signal (self-pipe wakeup into the event loop).
  void RequestStop() { loop_.RequestStop(); }

  const Stats& stats() const { return stats_; }

 private:
  bool HandleFrame(PeerId peer, const FrameView& frame) override;
  /// Republishes the protocol counters as `fedrec_coord_*` gauges and the
  /// delivery ledger as `fedrec_fault_*{scope="wire"}`.
  void PublishStats() override;
  bool HandleUpload(PeerId peer, std::string_view payload);
  /// Closes the pending round: one ServerRound over the transport, then an
  /// ack for every contributed upload whose sender is still connected.
  void RunRound();
  void SendError(PeerId peer, const Status& status);

  MfModel* model_;
  ShardTransport* transport_;
  Options options_;

  std::vector<ClientUpdate> updates_;   ///< round_size recycled slots
  /// Sender of updates_[i]: an ack never reaches a later peer on its fd.
  std::vector<PeerId> participants_;
  std::size_t pending_ = 0;             ///< filled prefix of updates_
  std::uint64_t round_ = 0;
  ServerRound server_round_;
  BinaryWriter scratch_;                ///< ack / error payload encode
  Stats stats_;
  /// Scrape-facing mirrors of the protocol counters; registered once in the
  /// constructor.
  struct ProtocolMetrics {
    obs::Gauge* rounds_completed = nullptr;
    obs::Gauge* uploads_received = nullptr;
    obs::Gauge* upload_bytes = nullptr;
    obs::Gauge* rejected_uploads = nullptr;
  };
  ProtocolMetrics metrics_;
  FrameServer loop_;  ///< last: borrows stats_ and this handler
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_FEDERATION_SERVICE_H_
