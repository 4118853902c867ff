#ifndef FEDREC_FED_SIMULATION_H_
#define FEDREC_FED_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/threadpool.h"
#include "data/dataset.h"
#include "fed/config.h"
#include "fed/round_engine.h"
#include "model/metrics.h"

/// \file
/// The federated-recommendation training loop of Section III-B with the
/// attacker hook of Section III-C: benign users are regular clients holding
/// private data; malicious users are additional injected clients whose uploads
/// are produced by a MaliciousCoordinator (the Attack implementations in
/// src/attack). Simulation is a thin facade: it owns the shared model, the
/// benign clients and the server rng, and drives the stage-decomposed
/// RoundEngine (fed/round_engine.h) epoch by epoch. Round mechanics — client
/// selection, local training fan-out, attack injection, touched-row
/// aggregation and the sparse model update — live in the engine.

namespace fedrec {

/// Per-epoch record for the Fig. 3 curves, plus round-throughput
/// instrumentation for the perf trajectory of the repo.
struct EpochRecord {
  std::size_t epoch = 0;
  double train_loss = 0.0;  ///< summed benign BPR loss (paper plots the sum)
  std::size_t rounds = 0;   ///< training rounds executed this epoch
  /// Wall time of the epoch's training rounds (excludes evaluation).
  double train_seconds = 0.0;
  double rounds_per_sec = 0.0;
  // -- Fault-injection counters, per-epoch deltas of the engine's FaultStats
  //    (all zero without an enabled fault plan) ------------------------------
  std::uint64_t dropped_uploads = 0;    ///< client dropouts
  std::uint64_t straggler_uploads = 0;  ///< deadline-missed stragglers
  std::uint64_t corrupt_messages = 0;   ///< wire messages failing validation
  std::uint64_t skipped_rounds = 0;     ///< rounds below the benign quorum
  bool has_metrics = false;
  MetricsResult metrics;
};

/// Federated training simulation.
class Simulation {
 public:
  /// `train` holds the benign users' private data; `num_malicious` clients are
  /// injected on top with ids starting at train.num_users(). `coordinator`
  /// may be null (the paper's "None" row). `pool` may be null.
  Simulation(const Dataset& train, const FedConfig& config,
             std::size_t num_malicious, MaliciousCoordinator* coordinator,
             ThreadPool* pool);

  // The engine borrows pointers to members, so relocation would leave it
  // aiming at the source object.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  std::size_t num_benign() const { return benign_clients_.size(); }
  std::size_t num_malicious() const { return engine_.num_malicious(); }
  std::size_t global_round() const { return engine_.global_round(); }

  MfModel& model() { return model_; }
  const MfModel& model() const { return model_; }

  RoundEngine& engine() { return engine_; }
  const RoundEngine& engine() const { return engine_; }

  /// Installs an observer receiving every round's uploads.
  void SetRoundObserver(RoundObserver observer) {
    observer_ = std::move(observer);
  }

  /// Runs one epoch; returns the summed benign BPR loss of the epoch. When
  /// the simulation was restored from a mid-epoch checkpoint, the first call
  /// finishes the open epoch (skipping BeginEpoch, which would re-consume
  /// rng) and returns the whole epoch's loss, checkpointed part included.
  double RunEpoch();

  /// Runs at most `max_rounds` rounds, opening and closing epochs as needed;
  /// may stop mid-epoch. Returns the rounds actually run (fewer only when
  /// config.epochs is exhausted). This is the checkpointing driver's loop:
  /// between any two calls the simulation is in a capturable state.
  std::size_t RunRounds(std::size_t max_rounds);

  /// RunRounds with round execution delegated to `round_runner` — typically
  /// a ShardedRoundEngine wrapping this simulation's engine over a socket
  /// transport (the fed layer cannot name that type; shard sits above it).
  /// Epoch bookkeeping (BeginEpoch / HasNextRound) still runs on this
  /// simulation's engine, which the runner must wrap, so checkpoints capture
  /// exactly the same state as the in-process overload and the two runs are
  /// bit-identical. `round_runner` returns the round's summed benign loss.
  std::size_t RunRounds(std::size_t max_rounds,
                        const std::function<double()>& round_runner);

  /// Runs config.epochs epochs, evaluating every `eval_every` epochs and at
  /// the final epoch when `evaluator` is non-null (eval_every = 0 evaluates
  /// the final epoch only — callers that derive a cadence by integer
  /// division, like `epochs / 10`, must still get final metrics).
  std::vector<EpochRecord> Run(const Evaluator* evaluator,
                               const std::vector<std::uint32_t>& target_items,
                               std::size_t eval_every);

  /// Assembles the benign users' current feature vectors into a reused member
  /// buffer (evaluation is an omniscient-simulator operation; the attacker
  /// never sees this matrix). The returned reference is invalidated by the
  /// next call.
  const Matrix& BenignUserFactors();

  // -- Checkpoint support (shard/checkpoint.h) ------------------------------
  const FedConfig& config() const { return config_; }
  const FaultPlan& fault_plan() const { return fault_plan_; }
  const std::vector<Client>& benign_clients() const { return benign_clients_; }
  std::vector<Client>& mutable_benign_clients() { return benign_clients_; }
  /// Server selection rng (mutable so a restore can reseat its cursor).
  Rng& server_rng() { return rng_; }
  const Rng& server_rng() const { return rng_; }
  /// Next epoch RunEpoch would open — or, mid-epoch, the one that is open.
  std::size_t current_epoch() const { return epoch_; }
  /// True between a BeginEpoch and the completion of its last round; a
  /// checkpoint taken now must carry the partial loss below.
  bool epoch_open() const { return epoch_open_; }
  /// Loss accumulated by the open epoch's completed rounds.
  double epoch_loss() const { return epoch_loss_; }
  /// Reseats the epoch cursor after a checkpoint restore: the engine's own
  /// counters are restored separately via RoundEngine::Restore.
  void RestoreEpochProgress(std::size_t epoch, double epoch_loss,
                            bool epoch_open) {
    epoch_ = epoch;
    epoch_loss_ = epoch_loss;
    epoch_open_ = epoch_open;
  }

 private:
  /// The one round loop behind RunEpoch and both RunRounds overloads: opens
  /// an epoch when none is open, runs its rounds through `run_round` and
  /// closes it after the last one. Stops after `max_rounds` rounds, once
  /// config.epochs epochs have closed, or (with `one_epoch`) once an epoch
  /// closes; RunEpoch ignores config.epochs, so callers may drive more.
  template <typename RoundFn>
  std::size_t RunRoundLoop(std::size_t max_rounds, bool one_epoch,
                           const RoundFn& run_round);

  FedConfig config_;
  ThreadPool* pool_;
  MfModel model_;
  std::vector<Client> benign_clients_;
  Rng rng_;
  FaultPlan fault_plan_;  ///< built from config.faults; inert when zero-rate
  std::size_t epoch_ = 0;
  double epoch_loss_ = 0.0;  ///< loss of the open epoch's completed rounds
  bool epoch_open_ = false;  ///< BeginEpoch ran, last round hasn't finished
  RoundObserver observer_;
  Matrix user_factors_;  ///< BenignUserFactors() buffer, reused per call
  RoundEngine engine_;   ///< declared last: borrows the members above
};

}  // namespace fedrec

#endif  // FEDREC_FED_SIMULATION_H_
