#ifndef FEDREC_SHARD_SHARD_DAEMON_H_
#define FEDREC_SHARD_SHARD_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/serialize.h"
#include "net/frame_server.h"
#include "obs/metrics.h"
#include "shard/shard_protocol.h"
#include "shard/shard_server.h"

/// \file
/// ShardDaemon: the protocol behind the fedrec_shardd binary. One process
/// (or thread, in tests) owns one shard's compute: a FrameServer (the shared
/// nonblocking serving loop, net/frame_server.h) accepts coordinator
/// connections and reassembles length-framed deliveries from reused
/// per-connection buffers; the daemon runs the shard's
/// decode + aggregate + FRWD re-encode step in place on those bytes (the
/// same `// fedrec:hot` codec path the in-process deployment runs), and
/// streams the reply back through a short-write-safe send queue. Steady
/// state — one coordinator delivering round after round — allocates
/// nothing; buffers are high-water sized.
///
/// The daemon is deliberately stateless between rounds: everything a round
/// needs travels in its delivery, so a crashed-and-restarted shardd rejoins
/// by simply accepting the coordinator's reconnect. The Hello handshake
/// pins the run: geometry (plan shape, dim, shard index) plus the run
/// fingerprint — the same FRCK checkpoint fingerprint the coordinator's
/// restore validates — are adopted from the first coordinator and every
/// later connection must match, so a shardd can never serve rows for a run
/// it does not belong to.

namespace fedrec {

class ShardDaemon : private FrameServer::Handler {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;          ///< 0 = pick a free port (see port())
    std::uint64_t shard_index = 0;   ///< which shard this daemon serves
    /// Liveness knobs (see net/liveness.h); all default off, so the daemon
    /// behaves exactly as before liveness existed unless configured.
    LivenessOptions liveness;
    /// Per-connection frame payload cap (see FrameReader::set_max_payload).
    std::uint64_t max_frame_payload = kMaxFramePayload;
    /// Frames served per connection per loop turn before yielding to other
    /// connections (0 = unbounded). A peer that pipelines thousands of
    /// frames then shares the loop instead of monopolising it.
    std::size_t max_frames_per_drain = 64;
  };

  /// Serving counters; the inherited ServingStats are the loop's.
  struct Stats : ServingStats {
    std::uint64_t rounds_served = 0;
    std::uint64_t hellos_accepted = 0;
    std::uint64_t hellos_rejected = 0;
    std::uint64_t recoverable_errors = 0;  ///< kError replies sent
  };

  explicit ShardDaemon(Options options);
  ShardDaemon(const ShardDaemon&) = delete;
  ShardDaemon& operator=(const ShardDaemon&) = delete;

  /// Binds and listens; after OK, port() is the bound port. Run() may then
  /// be called (possibly on another thread) — connects issued in between
  /// queue in the listen backlog.
  [[nodiscard]] Status Listen() { return loop_.Listen(); }
  std::uint16_t port() const { return loop_.port(); }

  /// Serves until RequestStop() or a kShutdown frame; frames buffered when
  /// the stop lands are still served. Blocks the caller.
  void Run() { loop_.Run(); }

  /// Thread-safe stop signal (self-pipe wakeup into the event loop).
  void RequestStop() { loop_.RequestStop(); }

  /// Serving counters; read after Run() returns (tests) or from the serving
  /// thread.
  const Stats& stats() const { return stats_; }

 private:
  bool HandleFrame(PeerId peer, const FrameView& frame) override;
  /// Republishes the protocol counters as `fedrec_shardd_*{shard="N"}`
  /// gauges (scrape-time only; the hot paths keep their plain counters).
  void PublishStats() override;
  bool HandleHello(PeerId peer, std::string_view payload);
  bool HandleRound(PeerId peer, std::string_view payload);
  /// Validates `hello` against the adopted geometry (adopting it first if
  /// this is the run's first coordinator).
  [[nodiscard]] Status CheckHello(const ShardHello& hello);
  void SendError(PeerId peer, const Status& status);
  bool Helloed(PeerId peer) const {
    return static_cast<std::size_t>(peer.fd) < helloed_.size() &&
           helloed_[static_cast<std::size_t>(peer.fd)] == peer.generation;
  }

  Options options_;
  bool adopted_ = false;           ///< geometry pinned by the first hello
  ShardHello geometry_;
  std::unique_ptr<ShardServer> server_;
  /// Per fd, the connection generation that completed the hello (0 = none;
  /// generations start at 1), so a recycled fd starts un-helloed.
  std::vector<std::uint64_t> helloed_;
  BinaryWriter scratch_;           ///< error payload encode scratch
  Stats stats_;
  /// Scrape-facing mirrors of the protocol counters; registered once in the
  /// constructor, labelled by shard index so multi-daemon processes (tests)
  /// keep their fleets apart.
  struct ProtocolMetrics {
    obs::Gauge* rounds_served = nullptr;
    obs::Gauge* hellos_accepted = nullptr;
    obs::Gauge* hellos_rejected = nullptr;
    obs::Gauge* recoverable_errors = nullptr;
  };
  ProtocolMetrics metrics_;
  FrameServer loop_;  ///< last: borrows stats_ and this handler
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SHARD_DAEMON_H_
