#ifndef FEDREC_FED_ROUND_ENGINE_H_
#define FEDREC_FED_ROUND_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "fed/aggregator.h"
#include "fed/client.h"
#include "fed/config.h"
#include "model/mf_model.h"
#include "obs/metrics.h"

/// \file
/// The server's round loop, decomposed into its protocol stages:
///
///   Select -> LocalTrain -> Attack -> Observe -> TransitFaults
///     -> Aggregate -> Apply
///
/// A round is strictly sequential (Section III, Eq. 7): the selected clients
/// train against the current V, then the server aggregates their uploads and
/// applies the result. RunClientStages runs the first five stages, the client
/// side of the round, for both the single-server path (RunRound) and the
/// sharded one (shard/sharded_round_engine.h), which differ only in the
/// server step that follows.
///
/// Every stage operates over one reusable RoundWorkspace: the selection
/// vectors, the update slots (recycled through Client::TrainRoundInto), the
/// flat row->contributors aggregation index and the touched-row
/// SparseRoundDelta all keep their capacity across rounds, so the
/// steady-state loop — client uploads included — performs no heap
/// allocations. A round only moves the item rows its clients uploaded
/// (Eq. 7), so the engine aggregates and applies O(touched_rows * dim) work
/// per round instead of materializing a dense num_items x dim gradient, and
/// the aggregation itself shards across the pool by contiguous row ranges.
///
/// Simulation (fed/simulation.h) drives the engine epoch by epoch; tests and
/// custom drivers may also invoke the stages individually.

namespace fedrec {

/// Per-round server state, reused across rounds (capacity is never released):
/// every ClientUpdate slot (and its SparseRowMatrix heap buffers) is recycled
/// via Client::TrainRoundInto, so steady-state rounds allocate nothing.
struct RoundWorkspace {
  /// Participation permutation. Shuffled-epoch mode shuffles the whole vector
  /// once per epoch; uniform-per-round mode draws each round's sample via a
  /// partial Fisher-Yates over its front.
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> selected_benign;
  std::vector<std::uint32_t> selected_malicious;
  /// The round's uploads: benign first (parallel to selected_benign), then
  /// one per selected malicious client.
  std::vector<ClientUpdate> updates;
  /// Parallel to `updates`: which uploads came from malicious clients.
  std::vector<bool> is_malicious;
  /// LocalTrain's dispatch order: indices into selected_benign, most
  /// positives first.
  std::vector<std::uint32_t> dispatch;
  /// Aggregation scratch (flat row->contributors index, gather buffers).
  AggregationWorkspace aggregation;
  /// The round's touched-row aggregate.
  SparseRoundDelta delta;
};

/// Read-only view of the server state an attacker legitimately observes when
/// one of its clients is selected: the shared parameters (V; Theta is empty
/// for MF) and the protocol hyper-parameters. `workspace` additionally
/// exposes the engine's round state (including the benign uploads of the
/// current round) — a *simulator* capability for omniscient-attacker and
/// adaptive-defense experiments that goes beyond the paper's threat model;
/// attacks that stay within the paper's model must only read the shared
/// parameters. It is null when no engine drives the round (stand-alone use).
struct RoundContext {
  const MfModel* model = nullptr;
  const FedConfig* config = nullptr;
  std::size_t epoch = 0;
  std::size_t round_in_epoch = 0;
  std::size_t global_round = 0;
  std::size_t num_benign_users = 0;
  ThreadPool* pool = nullptr;
  const RoundWorkspace* workspace = nullptr;
};

/// Producer of malicious uploads; implemented by every attack in src/attack.
class MaliciousCoordinator {
 public:
  virtual ~MaliciousCoordinator() = default;

  /// Attack name for reports ("fedrecattack", "random", ...).
  virtual std::string name() const = 0;

  /// Called once per round in which at least one malicious client was
  /// selected; returns exactly one upload per id in `selected_malicious`
  /// (ids are in [num_benign_users, num_benign_users + num_malicious)).
  virtual std::vector<ClientUpdate> ProduceUpdates(
      const RoundContext& context,
      std::span<const std::uint32_t> selected_malicious) = 0;
};

/// Observer invoked after each round with all uploads of the round and the
/// flags marking which came from malicious clients (detector experiments).
/// The observer is an omniscient-simulator hook: it sees every produced
/// upload, including ones transit faults later drop before aggregation.
using RoundObserver =
    std::function<void(const std::vector<ClientUpdate>&, const std::vector<bool>&)>;

/// Serializable engine-progress state for shard/checkpoint.h: the round
/// counters, the participation order (mutated by every selection draw, so it
/// is stream state), the failure counters and the virtual clock. Rounds never
/// overlap, so nothing of the next round exists between two rounds.
struct RoundEngineSnapshot {
  std::size_t epoch = 0;
  std::size_t round_in_epoch = 0;
  std::size_t rounds_this_epoch = 0;
  std::size_t global_round = 0;
  std::vector<std::uint32_t> order;
  FaultStats fault_stats;
  std::uint64_t clock_ticks = 0;
};

/// Stage-decomposed federated round loop over a persistent workspace.
class RoundEngine {
 public:
  /// All pointers are borrowed and must outlive the engine. `benign_clients`
  /// may still be empty at construction (it is only read from BeginEpoch on);
  /// `rng` is the server's selection stream.
  RoundEngine(const FedConfig* config, MfModel* model,
              std::vector<Client>* benign_clients, std::size_t num_malicious,
              MaliciousCoordinator* coordinator, ThreadPool* pool, Rng* rng);

  /// Starts epoch `epoch`: resamples every benign client's negative set and
  /// prepares the participation order for the configured ParticipationMode.
  void BeginEpoch(std::size_t epoch);

  /// True while the current epoch has rounds left to run.
  bool HasNextRound() const { return round_in_epoch_ < rounds_this_epoch_; }

  /// Runs every stage of one round (RunClientStages, then Aggregate and
  /// Apply unless the round was skipped) and finishes it. Returns the round's
  /// summed benign BPR loss. `observer` may be null.
  double RunRound(const RoundObserver& observer);

  /// The client side of one round, shared by RunRound and the sharded server
  /// path (shard/sharded_round_engine.h): Select, LocalTrain, Attack, Observe
  /// and ApplyTransitFaults under their stage spans. Stores the summed benign
  /// loss in `loss`. When faults are active and the surviving benign uploads
  /// miss config.min_round_quorum, the round is skipped: logged, counted in
  /// fault_stats().skipped_rounds and finished (FinishRound) with the model
  /// untouched, and the call returns false. Otherwise it returns true and the
  /// caller runs its server step over the surviving uploads, then calls
  /// FinishRound.
  bool RunClientStages(const RoundObserver& observer, double& loss);

  /// Ends the current round: advances the round counters and, when faults
  /// are active, republishes the engine's fault ledger as
  /// fedrec_fault_*{scope="engine"}.
  void FinishRound();

  // -- Individual stages, in protocol order (exposed for tests and custom
  //    drivers; RunRound invokes them in exactly this sequence) -------------

  /// Fills selected_benign / selected_malicious for the current round.
  void Select();
  /// Trains the selected benign clients (in parallel when a pool is set) and
  /// stores their uploads; returns the summed benign loss.
  double LocalTrain();
  /// Lets the coordinator append one poisoned upload per selected malicious
  /// client (no-op without coordinator or malicious selection).
  void Attack();
  /// Hands the round's uploads and malicious flags to `observer` (if any).
  void Observe(const RoundObserver& observer) const;
  /// Applies the round's transit faults (client dropouts and deadline-missed
  /// stragglers, drawn from the fault plan): surviving uploads are compacted
  /// to the front of the workspace in update order (so aggregation sees the
  /// same contributor sequence minus the losses), the live counters and
  /// fault stats update, and the clock advances by the collection deadline.
  /// A no-op without an enabled plan. Returns the surviving upload count.
  std::size_t ApplyTransitFaults();
  /// Aggregates the round's surviving uploads into the touched-row delta.
  void Aggregate();
  /// Applies the delta to the shared item matrix (Eq. 7).
  void Apply();

  std::size_t epoch() const { return epoch_; }
  std::size_t round_in_epoch() const { return round_in_epoch_; }
  std::size_t rounds_this_epoch() const { return rounds_this_epoch_; }
  std::size_t global_round() const { return global_round_; }
  std::size_t num_malicious() const { return num_malicious_; }
  const RoundWorkspace& workspace() const { return workspace_; }

  // -- Fault tolerance ------------------------------------------------------

  /// Installs a borrowed fault plan (null to clear). A disabled plan leaves
  /// every path bit-identical to no plan; an enabled one activates the
  /// transit-fault and quorum stages.
  void SetFaultPlan(const FaultPlan* plan) { fault_plan_ = plan; }
  const FaultPlan* fault_plan() const { return fault_plan_; }
  bool faults_active() const {
    return fault_plan_ != nullptr && fault_plan_->enabled();
  }
  /// Uploads that survived this round's transit faults (= all uploads when
  /// faults are inactive). The front `live_uploads()` entries of
  /// workspace().updates are the survivors, in update order.
  std::size_t live_uploads() const { return live_uploads_; }
  /// Advances the virtual clock (retry backoffs of external server paths).
  void AdvanceClock(std::uint64_t ticks);
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Engine-progress snapshot for the checkpoint codec (shard/checkpoint.h);
  /// Restore continues a restored run bit-identically to the uninterrupted
  /// one. The model, clients and server rng are captured separately.
  RoundEngineSnapshot Snapshot() const;
  void Restore(const RoundEngineSnapshot& snapshot);

 private:
  std::size_t TotalClients() const {
    return benign_clients_->size() + num_malicious_;
  }
  RoundContext MakeContext() const;

  const FedConfig* config_;
  MfModel* model_;
  std::vector<Client>* benign_clients_;
  std::size_t num_malicious_;
  MaliciousCoordinator* coordinator_;
  ThreadPool* pool_;
  Rng* rng_;
  RoundWorkspace workspace_;
  std::size_t epoch_ = 0;
  std::size_t round_in_epoch_ = 0;
  std::size_t rounds_this_epoch_ = 0;
  std::size_t global_round_ = 0;
  // Fault state: borrowed plan (null = fault-free), the current round's
  // transit draw (retained buffer), cumulative stats, the virtual clock, and
  // the surviving-upload counters ApplyTransitFaults maintains.
  const FaultPlan* fault_plan_ = nullptr;
  RoundFaultDraw fault_draw_;
  FaultStats fault_stats_;
  VirtualClock clock_;
  std::size_t live_uploads_ = 0;
  std::size_t live_benign_ = 0;
  // Per-stage latency histograms (fedrec_stage_us{stage=...}), fetched once
  // from the global registry at construction; the stage spans observe into
  // them and the trace ring. Observe-only — never read back.
  struct StageMetrics {
    obs::Histogram* select = nullptr;
    obs::Histogram* local_train = nullptr;
    obs::Histogram* attack = nullptr;
    obs::Histogram* observe = nullptr;
    obs::Histogram* transit_faults = nullptr;
    obs::Histogram* aggregate = nullptr;
    obs::Histogram* apply = nullptr;
  };
  StageMetrics stage_;
};

}  // namespace fedrec

#endif  // FEDREC_FED_ROUND_ENGINE_H_
