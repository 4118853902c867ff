#ifndef FEDREC_SHARD_SHARDED_ROUND_ENGINE_H_
#define FEDREC_SHARD_SHARDED_ROUND_ENGINE_H_

#include <memory>

#include "common/fault.h"
#include "common/threadpool.h"
#include "fed/config.h"
#include "fed/round_engine.h"
#include "model/mf_model.h"
#include "shard/shard_server.h"
#include "shard/transport.h"

/// \file
/// Sharded federation round loop: the client-facing stages
/// (Select/LocalTrain/Attack/Observe/TransitFaults) run unchanged through the
/// wrapped RoundEngine's RunClientStages, and the server side — the stage a
/// single box cannot scale to a catalogue-sized item matrix under heavy
/// traffic — is one ServerRound over the multi-shard path of ShardServer:
///
///   Select -> LocalTrain -> Attack -> Observe -> TransitFaults
///     -> Route (FRWU wire) -> per-shard Aggregate -> FRWD wire -> Merge
///     -> Apply
///
/// How the wire bytes travel is the ShardTransport seam: in-process buffer
/// handoffs (the default) or TCP connections to fedrec_shardd processes
/// (SocketShardTransport). The delivery loop is identical for both: a dead
/// or refused connection surfaces as the same kIOError a plan-injected shard
/// outage does, and flows through the same bounded-retry /
/// coordinator-local-fallback path with the same ledger; an infallible
/// transport simply never retries.
///
/// Every upload of the round — the malicious ones produced by the Attack
/// stage included — flows through the same routed wire path, so poisoned
/// rows split across shards exactly like benign ones; a shard cannot tell
/// them apart any better than the single server could. The merged delta is
/// bit-identical to the single-server RoundEngine for every aggregation rule
/// and any shard count, so sharding is a pure deployment choice: attack
/// efficacy numbers carry over unchanged.

namespace fedrec {

/// Drives RoundEngine's client stages and ShardServer's server stages.
class ShardedRoundEngine {
 public:
  /// In-process deployment: constructs and owns the historical buffer-handoff
  /// transport. All pointers are borrowed and must outlive this engine.
  /// `engine` is the single-federation round engine whose client stages are
  /// reused (its Aggregate/Apply are never called); `pool` fans both
  /// LocalTrain (via the engine) and the per-shard server work, and may be
  /// null.
  ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                     const FedConfig* config, const ShardPlan& plan,
                     ThreadPool* pool);

  /// Custom-transport deployment (e.g. SocketShardTransport over TCP
  /// fedrec_shardd processes). `transport` is borrowed and must outlive this
  /// engine; its plan must cover the model's item rows at the model's dim.
  ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                     const FedConfig* config, ShardTransport* transport,
                     ThreadPool* pool);

  void BeginEpoch(std::size_t epoch) { engine_->BeginEpoch(epoch); }
  bool HasNextRound() const { return engine_->HasNextRound(); }

  /// Runs one full round through the sharded server path; returns the summed
  /// benign BPR loss (same contract as RoundEngine::RunRound). `observer`
  /// may be null.
  ///
  /// When the wrapped engine carries an enabled fault plan, transit faults
  /// thin the uploads (quorum rules from the engine apply) and the owned
  /// in-process transport injects the plan's shard faults. A fallible
  /// transport's failed shard is retried up to config.max_shard_retries
  /// times (re-routing pristinely, deterministic exponential backoff on the
  /// virtual clock) before the coordinator aggregates that shard's row range
  /// locally.
  double RunRound(const RoundObserver& observer = {});

  const ShardServer& server() const { return transport_->server(); }
  ShardServer& server() { return transport_->server(); }
  ShardTransport& transport() { return *transport_; }
  const RoundEngine& engine() const { return *engine_; }

  /// Wire/shard failure counters of the delivery loop (corrupt messages,
  /// outages, retries, fallbacks). Transit-fault counters live on the
  /// wrapped engine's fault_stats(). Deterministic for a fixed (seed,
  /// fault seed) pair regardless of pool size; over a socket transport the
  /// same counters record *real* outages (dead shardd, timeout) instead of
  /// injected draws.
  const FaultStats& wire_fault_stats() const { return wire_stats_; }

 private:
  RoundEngine* engine_;
  MfModel* model_;
  const FedConfig* config_;
  ThreadPool* pool_;
  std::unique_ptr<InProcessShardTransport> owned_transport_;
  ShardTransport* transport_;
  ServerRound server_round_;
  FaultStats wire_stats_;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SHARDED_ROUND_ENGINE_H_
