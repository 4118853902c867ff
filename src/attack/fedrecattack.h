#ifndef FEDREC_ATTACK_FEDRECATTACK_H_
#define FEDREC_ATTACK_FEDRECATTACK_H_

#include <cstdint>
#include <span>
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
///     frozen (Eq. 19). Each BPR-SGD epoch is a serial pass that draws the
///     epoch's shuffle and negatives, then a pass on the round's pool that
///     applies every user's steps in draw order while the calling thread
///     draws the next epoch. A step touches only its user's row of U-hat, so
///     the result is the serial epoch's, bit for bit, at every pool size;
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

  /// Refines U-hat on D' (Eq. 19) with `epochs` epochs of BPR-SGD, V frozen.
  /// Bit-identical to TrainBprEpoch with update_items = false, and it draws
  /// the same values from the attack's stream; `pool` (may be null) only
  /// spreads the users' updates. Called internally, exposed for tests.
  void ApproximateUsers(const Matrix& item_factors, std::size_t epochs,
                        ThreadPool* pool = nullptr);

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
  /// Eq. 19 apply tasks per pool thread.
  static constexpr std::size_t kApplyTasksPerThread = 4;
  /// boundary_ entry of a user whose whole top-K list is target items.
  static constexpr std::uint32_t kNoBoundary = 0xFFFFFFFFu;

  /// One Eq. 19 step: a public positive and the negative drawn for it.
  struct BprStep {
    std::uint32_t item;
    std::uint32_t neg;
  };

  /// The serial half of one Eq. 19 epoch: shuffles D' and draws one negative
  /// per interaction from rng_, in TrainBprEpoch's order, writing each user's
  /// steps to its CSR range of `steps` in draw order.
  void DrawEpoch(std::size_t num_items, BprStep* steps);

  /// The parallel half: applies the `steps` of users [begin, end) to their
  /// U-hat rows.
  void ApplyUserSteps(const Matrix& item_factors, const BprStep* steps,
                      std::size_t begin, std::size_t end);

  /// The public positives of `user`, sorted.
  std::span<const std::uint32_t> PublicItems(std::size_t user) const {
    return {public_items_.data() + public_offsets_[user],
            public_items_.data() + public_offsets_[user + 1]};
  }

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
  /// D' in CSR form: user u's sorted public items are public_items_
  /// [public_offsets_[u], public_offsets_[u + 1]).
  std::vector<std::uint32_t> public_offsets_;
  std::vector<std::uint32_t> public_items_;
  /// D' as (user, item) tuples in CSR order; DrawEpoch shuffles a copy.
  std::vector<Interaction> public_interactions_;

  // Eq. 19 scratch, sized once in the constructor.
  std::vector<Interaction> shuffled_;
  /// Two epochs of steps, in CSR order: the one being applied and the one
  /// being drawn.
  std::vector<BprStep> steps_;
  /// DrawEpoch's next free step slot per user.
  std::vector<std::uint32_t> step_cursor_;
  /// Fixed item set V_i per malicious user id (keyed by id - num_benign).
  std::vector<std::vector<std::uint32_t>> item_sets_;
  std::vector<bool> item_set_ready_;
  std::vector<std::uint32_t> sorted_targets_;

  // ComputePoisonGradientInto scratch, sized on first use and reused.
  std::vector<std::size_t> sampled_users_;
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
