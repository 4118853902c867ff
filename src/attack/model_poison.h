#ifndef FEDREC_ATTACK_MODEL_POISON_H_
#define FEDREC_ATTACK_MODEL_POISON_H_

#include <memory>
#include <vector>

#include "fed/client.h"
#include "fed/simulation.h"

/// \file
/// Model-poisoning comparators of Table VIII: EB, PipAttack, P3 and P4.
/// All four forge gradient uploads directly (like FedRecAttack) but without
/// the user-matrix approximation, which is why the paper finds them both less
/// stealthy (visible HR@10 damage) and in need of many more malicious users.
///
/// Faithfulness notes: the originals assume side information (item popularity
/// for PipAttack, classification-task structure for P3/P4). We port each to FR
/// on the attacker-visible state exactly as the paper's comparison does
/// (Section V-C adopts the settings of [31] for them):
///  * EB explicitly boosts the malicious user's own predicted score of every
///    target (the "explicit boosting" ablation of [31]);
///  * PipAttack adds the popularity-alignment term, pulling target embeddings
///    toward the centroid of the known-popular items;
///  * P3 (Bhagoji et al. [28]) boosts the malicious objective by an explicit
///    scale factor to survive aggregation, plus a benign-looking alternating
///    component from a fake profile;
///  * P4 (Baruch et al. [50], "a little is enough") hides the attack within
///    the empirical per-coordinate spread of benign-looking gradients: it
///    estimates mean/std from its own cohort's simulated benign updates and
///    perturbs by at most z_max standard deviations.

namespace fedrec {

/// Shared knobs of the model-poisoning baselines.
struct ModelPoisonConfig {
  std::vector<std::uint32_t> target_items;
  std::size_t kappa = 60;     ///< non-zero-row budget per upload
  float clip_norm = 1.0f;     ///< server-side row bound C
  float boost = 1.0f;         ///< gradient amplification before clipping
  std::uint64_t seed = 11;
};

/// Common machinery: each malicious user owns a private vector u_m and a fake
/// benign profile used for filler gradients.
class ModelPoisonAttackBase : public MaliciousCoordinator {
 public:
  ModelPoisonAttackBase(std::string name, ModelPoisonConfig config,
                        std::size_t num_items);

  std::string name() const override { return name_; }

  std::vector<ClientUpdate> ProduceUpdates(
      const RoundContext& context,
      std::span<const std::uint32_t> selected_malicious) override;

 protected:
  /// Per-malicious-user state.
  struct MaliciousState {
    std::vector<float> user_vector;
    std::unique_ptr<Client> fake_client;  ///< benign-looking filler source
  };

  /// Emits the poisoned rows for one malicious user into `update` (rows will
  /// be clipped to C afterwards by the caller). `state` may be mutated (e.g.
  /// local u_m updates).
  virtual void EmitPoisonRows(const RoundContext& context,
                              MaliciousState& state, ClientUpdate& update) = 0;

  const ModelPoisonConfig& config() const { return config_; }
  std::size_t num_items() const { return num_items_; }
  Rng& rng() { return rng_; }

  /// Gradient coefficient of the boost loss -ln sigmoid(u.v_t) w.r.t. score.
  static float BoostCoefficient(float score);

 private:
  MaliciousState& StateForSlot(std::size_t slot, const RoundContext& context);

  std::string name_;
  ModelPoisonConfig config_;
  std::size_t num_items_;
  Rng rng_;
  std::vector<std::unique_ptr<MaliciousState>> states_;
};

/// EB: explicit score boosting between malicious users and targets.
class ExplicitBoostAttack : public ModelPoisonAttackBase {
 public:
  ExplicitBoostAttack(ModelPoisonConfig config, std::size_t num_items);

 protected:
  void EmitPoisonRows(const RoundContext& context, MaliciousState& state,
                      ClientUpdate& update) override;
};

/// PipAttack: explicit boosting + popularity alignment using popularity side
/// information (the top-popular item set).
class PipAttack : public ModelPoisonAttackBase {
 public:
  /// `popular_items` is the attacker's popularity side information (e.g. the
  /// top-10% most interacted items).
  PipAttack(ModelPoisonConfig config, std::size_t num_items,
            std::vector<std::uint32_t> popular_items,
            float alignment_weight = 1.0f);

 protected:
  void EmitPoisonRows(const RoundContext& context, MaliciousState& state,
                      ClientUpdate& update) override;

 private:
  std::vector<std::uint32_t> popular_items_;
  float alignment_weight_;
};

/// P3: boosted malicious objective + alternating benign-looking component.
class P3BoostedGradientAttack : public ModelPoisonAttackBase {
 public:
  P3BoostedGradientAttack(ModelPoisonConfig config, std::size_t num_items);

 protected:
  void EmitPoisonRows(const RoundContext& context, MaliciousState& state,
                      ClientUpdate& update) override;
};

/// P4: "a little is enough" — attack hidden inside the empirical coordinate
/// spread of the cohort's benign-looking gradients.
class P4LittleIsEnoughAttack : public ModelPoisonAttackBase {
 public:
  P4LittleIsEnoughAttack(ModelPoisonConfig config, std::size_t num_items,
                         float z_max = 1.5f);

 protected:
  void EmitPoisonRows(const RoundContext& context, MaliciousState& state,
                      ClientUpdate& update) override;

 private:
  /// Sigma of the round's benign uploads (RoundContext::workspace), gathered
  /// once per round and reused across this round's malicious clients.
  /// Returns false when no benign coordinates are available.
  bool BenignSigmaForRound(const RoundContext& context, double* sigma);

  float z_max_;
  std::vector<float> benign_coordinates_;  ///< gather buffer, reused
  double benign_sigma_ = 0.0;
  std::size_t benign_sigma_round_ = 0;
  bool benign_sigma_valid_ = false;
};

}  // namespace fedrec

#endif  // FEDREC_ATTACK_MODEL_POISON_H_
