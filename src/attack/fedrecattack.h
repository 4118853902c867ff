#ifndef FEDREC_ATTACK_FEDRECATTACK_H_
#define FEDREC_ATTACK_FEDRECATTACK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "data/public_view.h"
#include "fed/simulation.h"

/// \file
/// FedRecAttack (Section IV) — the paper's primary contribution.
///
/// Per round with selected malicious clients (Algorithm 1):
///  1. approximate the private user matrix U from the public interactions D'
///     and the shared item matrix V by minimizing L_rec(U, V; D') with V
///     frozen (Eq. 19);
///  2. form the poisoned gradient nabla~V = zeta * dL_atk/dV (Eq. 20), where
///     L_atk (Eq. 15-16) pushes every target item's score just above the
///     user's current top-K boundary through g(x) of Eq. (14);
///  3. each selected malicious client uploads nabla~V restricted to its fixed
///     item set V_i (targets + rows sampled with probability proportional to
///     gradient-row norms, Eq. 21-22), rows clipped to C (Eq. 23), and the
///     uploaded part is subtracted from the remainder (Eq. 24).

namespace fedrec {

/// Attack hyper-parameters (paper defaults in brackets).
struct FedRecAttackConfig {
  /// V^tar: the items to promote.
  std::vector<std::uint32_t> target_items;
  /// zeta: step size scaling the poisoned gradient [1].
  float step_size = 1.0f;
  /// kappa: max non-zero rows per malicious upload [60].
  std::size_t kappa = 60;
  /// C: max L2 norm per uploaded row [1].
  float clip_norm = 1.0f;
  /// K of the attacker-side recommendation list V^rec' in L_atk [10].
  std::size_t rec_k = 10;
  /// SGD epochs over D' on the first U-approximation call [30].
  std::size_t approx_epochs_first = 30;
  /// Warm-start refinement epochs on subsequent calls [2].
  std::size_t approx_epochs_round = 2;
  /// Learning rate of the U-approximation SGD [0.05].
  float approx_lr = 0.05f;
  /// Users sampled per gradient step; 0 = all benign users. Subsampling makes
  /// Eq. (20) a stochastic gradient — required at MovieLens-1M scale.
  std::size_t users_per_step = 0;
  std::uint64_t seed = 7;
};

/// The FedRecAttack coordinator (plugs into fed/Simulation).
class FedRecAttack : public MaliciousCoordinator {
 public:
  /// `public_view` is D' sampled from the benign training data. `num_benign`
  /// and `dim` size the approximated user matrix.
  FedRecAttack(FedRecAttackConfig config, const PublicInteractions* public_view,
               std::size_t num_benign, std::size_t dim);

  std::string name() const override { return "fedrecattack"; }

  std::vector<ClientUpdate> ProduceUpdates(
      const RoundContext& context,
      std::span<const std::uint32_t> selected_malicious) override;

  /// The approximated user matrix U-hat (exposed for tests/analysis).
  const Matrix& approximated_users() const { return u_hat_; }

  /// Dense poisoned gradient of the latest round before distribution
  /// (exposed for tests).
  const Matrix& last_poison_gradient() const { return last_gradient_; }

  /// Refines U-hat on D' (Eq. 19); called internally, exposed for tests.
  void ApproximateUsers(const Matrix& item_factors, std::size_t epochs);

  /// Computes zeta * dL_atk/dV at (U-hat, V) (Eq. 20) into `gradient`,
  /// reshaped to V's shape, in two phases. Phase 1 scores the sampled users
  /// on `pool`, one task per tile of users, and keeps each user's boundary
  /// item and per-target g'(s) weight. Phase 2 then adds the weighted user
  /// rows serially, chunk by chunk. Every chunk is one contiguous range of
  /// users per pool thread, and the chunk sums are added in order, so the
  /// bits depend on the pool's thread count but never on scheduling. Scratch
  /// is kept across calls; a same-shaped call allocates no matrix.
  void ComputePoisonGradientInto(const Matrix& item_factors, ThreadPool* pool,
                                 Matrix& gradient);

  /// Returning form of ComputePoisonGradientInto; exposed for tests.
  Matrix ComputePoisonGradient(const Matrix& item_factors, ThreadPool* pool);

  /// The users the latest ComputePoisonGradientInto call summed over, in the
  /// order the chunks split them (exposed for tests).
  const std::vector<std::uint32_t>& last_step_users() const {
    return step_users_;
  }

 private:
  /// Users scored per ScoreBlockPacked call in phase 1.
  static constexpr std::size_t kScoreTile = 8;
  /// boundary_ entry of a user whose whole top-K list is target items.
  static constexpr std::uint32_t kNoBoundary = 0xFFFFFFFFu;

  /// Phase 1 for tiles_[tile]: scores its users against the packed
  /// catalogue, then writes their boundary_ items and weights_.
  void ScoreTile(std::size_t tile, std::size_t num_items, std::size_t dim);

  /// Phase 2: sums +-w * u_hat rows into `gradient` (zeroed on entry), chunk
  /// by chunk in order.
  void AccumulatePoisonGradient(std::size_t num_chunks, Matrix& gradient);

  FedRecAttackConfig config_;
  const PublicInteractions* public_view_;
  Rng rng_;
  Matrix u_hat_;
  bool users_initialized_ = false;
  Matrix last_gradient_;
  /// Flattened D' for the approximation SGD.
  std::vector<Interaction> public_interactions_;
  std::vector<std::vector<std::uint32_t>> public_positives_;
  /// Fixed item set V_i per malicious user id (keyed by id - num_benign).
  std::vector<std::vector<std::uint32_t>> item_sets_;
  std::vector<bool> item_set_ready_;
  std::vector<std::uint32_t> sorted_targets_;

  /// ApproximateUsers' copy of V.
  Matrix v_scratch_;

  // ComputePoisonGradientInto scratch, sized on first use and reused.
  std::vector<std::uint32_t> step_users_;
  std::vector<float> items_packed_;
  /// [begin, end) ranges of step_users_ scored by one phase-1 task.
  std::vector<std::pair<std::size_t, std::size_t>> tiles_;
  /// Per step user: its boundary item, or kNoBoundary.
  std::vector<std::uint32_t> boundary_;
  /// Per step user x sorted target: g'(s), 0 when the pair adds nothing.
  std::vector<float> weights_;
  /// Sum of the current chunk (chunks after the first); all zero between
  /// chunks, since its touched rows are zeroed again after each merge.
  Matrix chunk_sum_;
  std::vector<std::uint32_t> touched_rows_;
  std::vector<std::uint8_t> row_touched_;
};

}  // namespace fedrec

#endif  // FEDREC_ATTACK_FEDRECATTACK_H_
