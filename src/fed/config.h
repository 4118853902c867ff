#ifndef FEDREC_FED_CONFIG_H_
#define FEDREC_FED_CONFIG_H_

#include <cstdint>

#include "common/fault.h"
#include "model/mf_model.h"

/// \file
/// Configuration of the federated training protocol of Section III-B, using
/// the paper's notation: eta (learning rate), C (row-gradient L2 bound),
/// mu (DP noise scale), kappa (non-zero-row bound observed by the server).

namespace fedrec {

/// How gradients from one round's clients are combined on the server.
/// kSum is the paper's protocol (Eq. 7); the rest are the byzantine-robust
/// aggregations named in the paper's future-work section, implemented as an
/// extension for the defense ablation.
enum class AggregatorKind {
  kSum,
  kTrimmedMean,
  kMedian,
  kNormBound,
  kKrum,
};

const char* AggregatorKindToString(AggregatorKind kind);

/// How the server draws each round's participants.
enum class ParticipationMode {
  /// Shuffle all clients each epoch and walk the permutation in batches of
  /// clients_per_round: every client participates exactly once per epoch
  /// (the protocol the paper's experiments use).
  kShuffledEpochs,
  /// Draw clients_per_round participants uniformly without replacement,
  /// independently every round — the classical cross-device FL regime where
  /// per-round participation is sparse and a client may go many rounds
  /// without being selected. An "epoch" is FedConfig::rounds_per_epoch
  /// rounds (0 keeps the shuffled-epoch round count for comparability).
  kUniformPerRound,
};

const char* ParticipationModeToString(ParticipationMode mode);

/// Options for robust aggregation.
struct AggregatorOptions {
  AggregatorKind kind = AggregatorKind::kSum;
  /// Fraction trimmed from each side per coordinate (kTrimmedMean).
  double trim_fraction = 0.1;
  /// Max per-row L2 accepted before rescaling (kNormBound).
  double norm_bound = 1.0;
  /// Krum: number of honest clients assumed per round (f = selected - honest).
  std::size_t krum_honest = 0;  // 0 = derive as ceil(0.7 * selected)
};

/// Full protocol configuration.
struct FedConfig {
  MfHyperParams model;

  /// |U'|: clients selected per training iteration.
  std::size_t clients_per_round = 64;
  /// Round participation sampling (see ParticipationMode).
  ParticipationMode participation = ParticipationMode::kShuffledEpochs;
  /// kUniformPerRound only: rounds per epoch (0 = ceil(clients / round size),
  /// matching the shuffled-epoch round count).
  std::size_t rounds_per_epoch = 0;
  /// Total training epochs; one epoch cycles every client once (paper: 200).
  std::size_t epochs = 200;
  /// C: L2 bound on each uploaded gradient row.
  float clip_norm = 1.0f;
  /// mu: DP noise scale of Eq. (5); noise stddev is mu * C. The paper leaves
  /// mu unspecified in its default table; 0 disables noise.
  float noise_scale = 0.0f;
  /// Negatives per positive when a client builds its pair set V_i (paper: the
  /// negative set has the same size as V+_i, i.e. one negative per positive).
  std::size_t negatives_per_positive = 1;

  AggregatorOptions aggregator;

  // -- Fault tolerance (see common/fault.h) ---------------------------------
  /// Minimum surviving *benign* uploads a round must deliver to aggregate;
  /// below it the round is skipped with a log line instead of failing the
  /// epoch. Only reachable under fault injection — without faults every
  /// selected client reports. 0 aggregates even an empty round.
  std::size_t min_round_quorum = 1;
  /// Sharded path: re-aggregations of one shard's routed rows after a
  /// corrupt or unanswered reply, before the coordinator falls back to
  /// aggregating that shard's row range locally.
  std::size_t max_shard_retries = 2;
  /// Deterministic backoff: retry k of a shard waits
  /// shard_retry_backoff_ticks << (k - 1) virtual ticks.
  std::uint64_t shard_retry_backoff_ticks = 2;
  /// Deterministic fault schedule (all rates default to 0 = no faults; a
  /// zero-rate plan leaves every code path bit-identical to no plan).
  FaultSpec faults;

  std::uint64_t seed = 1;
};

}  // namespace fedrec

#endif  // FEDREC_FED_CONFIG_H_
