#ifndef FEDREC_ATTACK_DATA_POISON_H_
#define FEDREC_ATTACK_DATA_POISON_H_

#include <vector>

#include <memory>

#include "attack/shilling.h"
#include "data/dataset.h"
#include "model/ncf.h"

/// \file
/// Full-knowledge data-poisoning comparators of Table VI.
///
/// P1 (Li et al. [15]/[41]) and P2 (Huang et al. [16]) were designed for
/// centralized recommenders and require the attacker's access to (at least a
/// large share of) ALL user-item interactions. The paper ports them into FR by
/// granting them exactly that knowledge and letting their fake users join the
/// federation as regular clients. We reproduce that port:
///
/// * both train a full-knowledge surrogate on the complete dataset D: P1 an
///   MF model, P2 an NCF model (the deep model class [16] attacks; an MF
///   model when SurrogateConfig::deep is off);
/// * P1 selects filler items that maximize co-preference mass with the
///   targets — popularity-weighted latent similarity to the target centroid
///   (the influence heuristic of the original optimization);
/// * P2 draws a fresh virtual user per fake profile and fills with the
///   surrogate's highest-scoring items for it (the paper-described
///   "highest predicted score" filler rule of the deep-learning attack);
/// * the generated fake profiles then behave as benign federated clients.

namespace fedrec {

/// Surrogate-model hyper-parameters shared by P1/P2.
struct SurrogateConfig {
  std::size_t dim = 32;
  std::size_t epochs = 15;
  float learning_rate = 0.05f;
  std::uint64_t seed = 99;
  /// P2 only: train a deep (NCF) surrogate — the model class its original
  /// attack [16] targets — instead of the MF fallback.
  bool deep = true;
};

/// P1: data poisoning against matrix-factorization recommenders.
class DataPoisonP1 : public FakeProfileAttack {
 public:
  DataPoisonP1(std::vector<std::uint32_t> target_items, std::size_t kappa,
               const Dataset& full_knowledge, const SurrogateConfig& surrogate,
               std::uint64_t seed);

  std::vector<std::uint32_t> BuildFillerItems(std::size_t slot,
                                              Rng& rng) override;

 private:
  /// Sampling weight per item derived from the surrogate (targets weight 0).
  std::vector<double> filler_weights_;
};

/// P2: data poisoning against deep-learning recommenders. Trains an NCF
/// surrogate with full knowledge of D (matching [16]'s setting) and fills
/// each fake profile with the surrogate's highest-scored items for a fresh
/// virtual user; falls back to an MF surrogate when `surrogate.deep` is off.
class DataPoisonP2 : public FakeProfileAttack {
 public:
  DataPoisonP2(std::vector<std::uint32_t> target_items, std::size_t kappa,
               const Dataset& full_knowledge, const SurrogateConfig& surrogate,
               std::uint64_t seed);

  std::vector<std::uint32_t> BuildFillerItems(std::size_t slot,
                                              Rng& rng) override;

  /// True when the deep (NCF) surrogate is active (for tests/reports).
  bool uses_deep_surrogate() const { return deep_surrogate_ != nullptr; }

 private:
  std::unique_ptr<NcfModel> deep_surrogate_;  ///< NCF surrogate (deep path)
  Matrix surrogate_items_;   ///< MF surrogate item factors (fallback path)
  float init_std_ = 0.1f;    ///< virtual-user draw scale
};

}  // namespace fedrec

#endif  // FEDREC_ATTACK_DATA_POISON_H_
