#ifndef FEDREC_NET_LIVENESS_H_
#define FEDREC_NET_LIVENESS_H_

#include <cstdint>

/// \file
/// Liveness policy for the serving loop: pure functions from per-peer
/// activity timestamps to deadline decisions. FrameServer — the one loop
/// behind fedrec_shardd and FederationService — keeps one PeerLiveness per
/// connection, arms a DeadlineWheel at NextLivenessDeadline, and on expiry
/// acts on ClassifyDeadline's verdict:
///
///   kSlowRead — a frame has been partially buffered longer than the read
///               deadline: a trickling (or malicious) peer is holding
///               reassembly state hostage; close it.
///   kReap     — nothing heard for the peer timeout: the connection is
///               half-open (peer crashed, cable cut); close it.
///   kProbe    — idle past the heartbeat interval: send one kHeartbeat and
///               wait. Any inbound byte clears `probe_sent`, so exactly one
///               probe is sent per silence; a peer that stays silent through
///               the probe ages into kReap.
///
/// All three features are opt-in per option (0 = disabled): a loop with the
/// defaults behaves exactly as it did before liveness existed. Nothing here
/// reads a clock — callers pass `now` from MonotonicMillis (or a
/// hand-advanced counter in tests), and nothing a deadline triggers may
/// influence what a training round computes, only when work happens.

namespace fedrec {

/// Per-loop liveness knobs; milliseconds, 0 disables the feature.
struct LivenessOptions {
  std::uint64_t heartbeat_interval_ms = 0;  ///< idle gap before one probe
  std::uint64_t peer_timeout_ms = 0;        ///< silence that reaps the peer
  std::uint64_t read_deadline_ms = 0;       ///< max age of a partial frame

  bool enabled() const {
    return heartbeat_interval_ms != 0 || peer_timeout_ms != 0 ||
           read_deadline_ms != 0;
  }
};

/// Per-connection liveness state. `read_start_ms == 0` means "not mid-frame"
/// (the monotonic clock's 0 is decades in the past on any live system).
struct PeerLiveness {
  std::uint64_t last_activity_ms = 0;  ///< last inbound byte (or accept)
  std::uint64_t read_start_ms = 0;     ///< first byte of the partial frame
  std::uint64_t probe_sent_ms = 0;     ///< when the probe left (RTT metric)
  bool probe_sent = false;             ///< heartbeat sent this silence
};

enum class LivenessVerdict {
  kNone,      ///< nothing due (spurious wakeup / state changed since arming)
  kProbe,     ///< send one heartbeat
  kReap,      ///< half-open peer: close
  kSlowRead,  ///< partial frame overdue: close
};

/// Earliest deadline the peer's current state implies, or 0 when no feature
/// is armed for it.
inline std::uint64_t NextLivenessDeadline(const LivenessOptions& options,
                                          const PeerLiveness& peer) {
  std::uint64_t next = 0;
  const auto fold = [&next](std::uint64_t deadline) {
    if (next == 0 || deadline < next) next = deadline;
  };
  if (options.read_deadline_ms != 0 && peer.read_start_ms != 0) {
    fold(peer.read_start_ms + options.read_deadline_ms);
  }
  if (options.peer_timeout_ms != 0) {
    fold(peer.last_activity_ms + options.peer_timeout_ms);
  }
  if (options.heartbeat_interval_ms != 0 && !peer.probe_sent) {
    fold(peer.last_activity_ms + options.heartbeat_interval_ms);
  }
  return next;
}

/// What a due deadline means right now. Severity wins ties: a peer that is
/// both overdue mid-frame and silent is closed, not probed.
inline LivenessVerdict ClassifyDeadline(const LivenessOptions& options,
                                        const PeerLiveness& peer,
                                        std::uint64_t now_ms) {
  if (options.read_deadline_ms != 0 && peer.read_start_ms != 0 &&
      now_ms >= peer.read_start_ms + options.read_deadline_ms) {
    return LivenessVerdict::kSlowRead;
  }
  if (options.peer_timeout_ms != 0 &&
      now_ms >= peer.last_activity_ms + options.peer_timeout_ms) {
    return LivenessVerdict::kReap;
  }
  if (options.heartbeat_interval_ms != 0 && !peer.probe_sent &&
      now_ms >= peer.last_activity_ms + options.heartbeat_interval_ms) {
    return LivenessVerdict::kProbe;
  }
  return LivenessVerdict::kNone;
}

}  // namespace fedrec

#endif  // FEDREC_NET_LIVENESS_H_
