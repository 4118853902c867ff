#ifndef FEDREC_SHARD_SHARD_SERVER_H_
#define FEDREC_SHARD_SHARD_SERVER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/matrix.h"
#include "common/stamp_set.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "data/serialize.h"
#include "fed/aggregator.h"
#include "fed/client.h"
#include "shard/shard_plan.h"

/// \file
/// Multi-shard aggregation service: the server side of a round, split across
/// S shard servers that each own a disjoint slice of the item rows (see
/// ShardPlan). A round flows through three wire-delimited steps:
///
///   RouteRound          — every upload's rows are split by owning shard and
///                         encoded as FRWU messages into per-shard inboxes
///   AggregateShardRound — each shard validates its inbox, copies the routed
///                         rows once into a flat arena, aggregates ONLY those
///                         rows, then encodes its partial delta as an FRWD
///                         message (AggregateShardRoundWire: the same step
///                         over bytes a transport delivered)
///   DecodeShardDelta    — the coordinator decodes each FRWD reply into a
///     + MergeReceived     receive slot and merges the slots by sorted-row
///                         union
///
/// ServerRound (shard/transport.h) drives these steps for every deployment:
/// in process, over TCP to fedrec_shardd, with or without injected faults.
///
/// Because every row is owned by exactly one shard and routing preserves
/// update order, each row's contributor sequence on its shard is exactly the
/// single-server sweep's — the merged delta is bit-identical to
/// AggregateUpdates over the whole round, for every aggregation rule and any
/// shard count. Krum is the one whole-round rule: the coordinator runs
/// KrumSelect globally and broadcasts the winner's source id; shards emit
/// only the winner's routed rows (scaled to the round size, as the
/// single-server rule does).
///
/// All per-shard state (inboxes, decoded-row arena, aggregation workspace,
/// delta and its wire form) is persistent and high-water sized: a
/// steady-state round routes, aggregates and merges without heap growth
/// (measured by the sparse-allocation hook, which the wire writers also
/// feed). In-process the "wire" is a byte buffer handoff; a real deployment
/// replaces the handoff with sockets and keeps every encode/decode path.

namespace fedrec {

/// Cumulative wire-traffic counters (divide by rounds for per-round cost).
struct ShardServerStats {
  std::uint64_t rounds = 0;            ///< rounds routed
  std::uint64_t upload_messages = 0;   ///< FRWU messages delivered
  std::uint64_t upload_bytes = 0;      ///< total FRWU bytes
  std::uint64_t delta_bytes = 0;       ///< total FRWD bytes
};

/// The sharded server of one federation. Owns S shard states plus the
/// coordinator-side merge scratch.
class ShardServer {
 public:
  /// `plan.num_items()` must cover every row id a round can upload; `dim` is
  /// the feature dimension every message must carry.
  ShardServer(const ShardPlan& plan, std::size_t dim);

  const ShardPlan& plan() const { return plan_; }
  std::size_t dim() const { return dim_; }

  /// Clears last round's inboxes and encodes every upload's routed rows into
  /// them: one FRWU message per (update, owning shard) pair with at least
  /// one routed row, in update order, carrying the upload's round-unique
  /// sequence number as the wire source id (client ids are
  /// attacker-controlled and may collide). Sharded across `pool` (each shard
  /// scans the round and keeps only its rows); `pool` may be null. Aborts on
  /// a row outside the plan — the single-server engine aborts on such a row
  /// at Apply, and silent dropping would diverge from it.
  void RouteRound(std::span<const ClientUpdate> updates, ThreadPool* pool);

  // -- Per-shard steps (the delivery loop; each is safe to call
  //    concurrently for distinct shards) -----------------------------------

  /// Routes one shard's slice of the round into its inbox (RouteRound's
  /// per-shard body). Byte-identical to what RouteRound produced for `s`, so
  /// it is also the retry path's "resend": a failed delivery re-requests the
  /// shard's routed rows from the pristine uploads.
  void RouteShard(std::span<const ClientUpdate> updates, std::size_t s);

  /// One shard's server-side step over its in-process inbox: decodes it,
  /// aggregates its routed rows, re-encodes its FRWD reply. `round_size` is
  /// the number of uploads in the round (the output scale of Krum);
  /// `krum_source` is the sequence number of the globally Krum-selected
  /// upload (ignored for the per-row rules). Returns Corruption on a
  /// damaged, duplicated, truncated or misrouted inbox.
  [[nodiscard]] Status AggregateShardRound(std::size_t s,
                                           const AggregatorOptions& options,
                                           std::size_t round_size,
                                           std::uint64_t krum_source);

  /// Decodes shard `s`'s FRWD reply into the coordinator's receive slot
  /// (validates framing, trailing bytes and dimension) and records its size
  /// for the next MergeReceived to count.
  [[nodiscard]] Status DecodeShardDelta(std::size_t s);

  // -- Transport-delivered wire views (the socket deployment; bytes are
  //    decoded in place from the caller's connection buffer, nothing is
  //    copied into the inbox/delta writers) -------------------------------

  /// Shard `s`'s server-side step over FRWU bytes a transport delivered:
  /// same decode + aggregate + FRWD re-encode as AggregateShardRound, with
  /// `inbox_wire` in place of the in-process inbox. `expected_messages`
  /// guards boundary-truncated deliveries (0 = no expectation recorded).
  [[nodiscard]] Status AggregateShardRoundWire(std::size_t s,
                                               std::string_view inbox_wire,
                                               std::size_t expected_messages,
                                               const AggregatorOptions& options,
                                               std::size_t round_size,
                                               std::uint64_t krum_source);

  /// Decodes an FRWD reply a transport delivered for shard `s` into the
  /// coordinator's receive slot (same validation as DecodeShardDelta).
  [[nodiscard]] Status DecodeShardDeltaWire(std::size_t s,
                                            std::string_view frwd_wire);

  /// Merges the decoded receive slots into `out` by sorted-row union (shard
  /// row sets are disjoint by construction; overlap is reported as
  /// corruption) and adds the decoded FRWD bytes to stats().delta_bytes —
  /// serially, after the concurrent per-shard decodes. All shards must have a
  /// successfully decoded slot.
  [[nodiscard]] Status MergeReceived(SparseRoundDelta& out);

  /// Wire access for tests, custom transports and fault injection: the inbox
  /// a coordinator fills for shard `s`, and the FRWD reply shard `s` produced
  /// last round.
  BinaryWriter& inbox(std::size_t s) { return shards_[s].inbox; }
  BinaryWriter& delta_writer(std::size_t s) { return shards_[s].delta_wire; }
  const std::string& delta_wire(std::size_t s) const {
    return shards_[s].delta_wire.buffer();
  }

  /// FRWU messages RouteRound/RouteShard encoded into shard `s`'s inbox
  /// this round (a socket coordinator sends it ahead of the bytes so the
  /// shardd can detect boundary-truncated deliveries).
  std::size_t message_count(std::size_t s) const {
    return shards_[s].message_count;
  }

  /// Shard `s`'s own delta from its last AggregateShardRound (pre-wire).
  const SparseRoundDelta& shard_delta(std::size_t s) const {
    return shards_[s].delta;
  }

  const ShardServerStats& stats() const { return stats_; }

  /// Wall seconds shard `s` spent in its own routing / decode+aggregate work
  /// last round, excluding scheduling. Measured per shard regardless of the
  /// pool, so a single-core host can still report the per-shard critical
  /// path an S-worker deployment would pay.
  double route_seconds(std::size_t s) const { return shards_[s].route_seconds; }
  double aggregate_seconds(std::size_t s) const {
    return shards_[s].aggregate_seconds;
  }

 private:
  /// One shard's decoded inbox: every routed row copied once out of the
  /// FRWU wire into flat, high-water buffers (growth is noted as a sparse
  /// allocation). Message m owns rows [offsets[m], offsets[m + 1]).
  struct UploadArena {
    std::vector<std::size_t> rows;      ///< row ids, message order
    std::vector<float> values;          ///< rows.size() x dim, row-major
    std::vector<std::size_t> offsets;   ///< messages + 1 entries
    std::vector<std::uint64_t> sources; ///< wire source id per message
  };

  struct ShardState {
    BinaryWriter inbox;                       ///< FRWU wire in
    BinaryWriter delta_wire;                  ///< FRWD wire out
    std::vector<std::uint32_t> route_slots;   ///< per-update routing scratch
    UploadArena arena;                        ///< decoded inbox
    /// Duplicate-row guard over plan-local rows, one mark per message.
    StampSet rows_seen;
    std::size_t message_count = 0;            ///< FRWU messages this round
    AggregationWorkspace aggregation;
    SparseRoundDelta delta;
    double route_seconds = 0.0;
    double aggregate_seconds = 0.0;
  };

  /// Decodes FRWU `wire` into shard `s`'s arena; validates framing and CRC
  /// (ParseUpload), dimensions, ownership, duplicate rows within a message,
  /// strictly-ascending sources (duplicate / replayed delivery) and — when
  /// `expected_messages` is nonzero — the message count (boundary-truncated
  /// delivery). The in-process path passes the shard's own inbox; the socket
  /// path passes the connection buffer.
  [[nodiscard]] Status DecodeInbox(ShardState& shard, std::size_t s,
                                   std::string_view wire,
                                   std::size_t expected_messages);
  /// Aggregates shard `s`'s decoded arena into its delta.
  void AggregateShard(ShardState& shard, const AggregatorOptions& options,
                      std::size_t round_size, std::uint64_t krum_source);
  /// Plan-local index of `row`, which shard `s` owns: the offset into the
  /// shard's contiguous range, or the row itself under kHashed.
  std::size_t LocalRow(std::size_t s, std::size_t row) const {
    return plan_.policy() == ShardPolicy::kContiguousRange
               ? row - plan_.RangeBegin(s)
               : row;
  }

  ShardPlan plan_;
  std::size_t dim_;
  std::vector<ShardState> shards_;
  // Coordinator-side merge state (reused round over round).
  std::vector<SparseRoundDelta> received_;
  std::vector<std::size_t> received_bytes_;  ///< FRWD size per slot
  std::vector<std::size_t> cursor_;
  ShardServerStats stats_;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SHARD_SERVER_H_
