#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "attack/fedrecattack.h"
#include "attack/model_poison.h"
#include "common/math.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/aggregator.h"
#include "model/metrics.h"
#include "model/topk.h"

namespace fedrec {
namespace {

// ---------------------------------------------------------------------------
// Property: gradient clipping always enforces the bound, never changes
// direction, and is idempotent. Swept over dimension x bound x seed.
// ---------------------------------------------------------------------------

class ClipProperty
    : public ::testing::TestWithParam<std::tuple<int, float, int>> {};

TEST_P(ClipProperty, BoundDirectionIdempotence) {
  const auto [dim, bound, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian(0.0, 3.0));
  const std::vector<float> original = v;

  ClipL2(v, bound);
  EXPECT_LE(L2Norm(v), bound * 1.0001f);
  // Direction preserved: v is a non-negative multiple of the original.
  const float original_norm = L2Norm(original);
  if (original_norm > 0.0f) {
    const float cosine = Dot(v, original) / (L2Norm(v) * original_norm + 1e-12f);
    if (L2Norm(v) > 0.0f) {
      EXPECT_NEAR(cosine, 1.0f, 1e-4f);
    }
  }
  // Idempotent.
  const std::vector<float> once = v;
  ClipL2(v, bound);
  for (int d = 0; d < dim; ++d) EXPECT_FLOAT_EQ(v[d], once[d]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClipProperty,
    ::testing::Combine(::testing::Values(1, 4, 32, 128),
                       ::testing::Values(0.1f, 1.0f, 10.0f),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Property: the attack's g function (Eq. 14) is monotone, continuous, bounded
// below by -1, and its derivative is in (0, 1].
// ---------------------------------------------------------------------------

class GFunctionProperty : public ::testing::TestWithParam<double> {};

TEST_P(GFunctionProperty, ShapeInvariants) {
  const double x = GetParam();
  EXPECT_GE(AttackG(x), -1.0);  // bounded below by -1 (the stealth mechanism)
  EXPECT_GT(AttackGPrime(x), 0.0);
  EXPECT_LE(AttackGPrime(x), 1.0);
  // Monotone non-decreasing (flat only in the deep negative tail where the
  // double representation of e^x - 1 saturates at -1).
  EXPECT_GE(AttackG(x + 1e-3), AttackG(x));
  // g lies on or above its tangent line y = x (e^x - 1 >= x), with equality
  // exactly on x >= 0.
  EXPECT_GE(AttackG(x), x);
  if (x >= 0.0) {
    EXPECT_DOUBLE_EQ(AttackG(x), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GFunctionProperty,
                         ::testing::Values(-50.0, -5.0, -1.0, -0.1, 0.0, 0.1,
                                           1.0, 5.0, 50.0));

// ---------------------------------------------------------------------------
// Property: every aggregator is permutation invariant and maps all-zero
// uploads to a zero gradient.
// ---------------------------------------------------------------------------

/// Aggregates through the workspace entry point and materializes the dense
/// num_items x dim gradient.
Matrix AggregateDense(std::span<const ClientUpdate> updates,
                      std::size_t num_items, std::size_t dim,
                      const AggregatorOptions& options) {
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, dim, options, workspace, delta);
  return delta.ToDense(num_items);
}

class AggregatorProperty : public ::testing::TestWithParam<AggregatorKind> {};

TEST_P(AggregatorProperty, PermutationInvariantAndZeroPreserving) {
  AggregatorOptions options;
  options.kind = GetParam();
  // Krum sums the 2 closest neighbours here; with the distinct geometric
  // spacing below every client has a unique score, so no argmin ties (two
  // mutual nearest neighbours tie by construction when only 1 neighbour
  // counts, which would make any aggregator order-dependent).
  options.krum_honest = 4;

  const float values[5] = {1.0f, 2.0f, 4.0f, 8.0f, 100.0f};
  std::vector<ClientUpdate> updates;
  for (std::uint32_t c = 0; c < 5; ++c) {
    ClientUpdate update;
    update.user = c;
    update.item_gradients = SparseRowMatrix(3);
    for (int r = 0; r < 4; ++r) {
      auto row = update.item_gradients.RowMutable((c + static_cast<std::uint32_t>(r) * 2) % 8);
      for (std::size_t d = 0; d < row.size(); ++d) {
        row[d] = values[c] * (1.0f + 0.1f * static_cast<float>(d));
      }
    }
    updates.push_back(std::move(update));
  }
  const Matrix forward = AggregateDense(updates, 8, 3, options);
  std::reverse(updates.begin(), updates.end());
  const Matrix backward = AggregateDense(updates, 8, 3, options);
  for (std::size_t i = 0; i < forward.rows(); ++i) {
    for (std::size_t d = 0; d < forward.cols(); ++d) {
      EXPECT_NEAR(forward.At(i, d), backward.At(i, d), 1e-5)
          << "row " << i << " dim " << d;
    }
  }

  // All-zero uploads aggregate to zero.
  std::vector<ClientUpdate> zeros(3);
  for (auto& update : zeros) {
    update.item_gradients = SparseRowMatrix(3);
    update.item_gradients.RowMutable(0);
  }
  const Matrix z = AggregateDense(zeros, 8, 3, options);
  EXPECT_FLOAT_EQ(z.FrobeniusNorm(), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AggregatorProperty,
                         ::testing::Values(AggregatorKind::kSum,
                                           AggregatorKind::kTrimmedMean,
                                           AggregatorKind::kMedian,
                                           AggregatorKind::kNormBound,
                                           AggregatorKind::kKrum));

// ---------------------------------------------------------------------------
// Property: the public view D' is always a subset of D with per-user fraction
// consistent with xi, across xi values and sampling modes.
// ---------------------------------------------------------------------------

class PublicViewProperty
    : public ::testing::TestWithParam<std::tuple<double, PublicSamplingMode>> {};

TEST_P(PublicViewProperty, SubsetAndFraction) {
  const auto [xi, mode] = GetParam();
  SyntheticConfig config;
  config.num_users = 150;
  config.num_items = 200;
  config.mean_interactions_per_user = 30.0;
  config.seed = 5;
  const Dataset ds = GenerateSynthetic(config);
  Rng rng(9);
  const auto view = PublicInteractions::Sample(ds, xi, rng, mode);

  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (std::uint32_t item : view.UserItems(u)) {
      ASSERT_TRUE(ds.HasInteraction(u, item));
    }
  }
  const double fraction = static_cast<double>(view.TotalCount()) /
                          static_cast<double>(ds.num_interactions());
  if (xi == 0.0) {
    EXPECT_EQ(view.TotalCount(), 0u);
  } else if (mode == PublicSamplingMode::kCeil) {
    EXPECT_GE(fraction, xi * 0.8);  // ceil can only over-expose
  } else {
    EXPECT_NEAR(fraction, xi, std::max(0.02, xi * 0.35));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PublicViewProperty,
    ::testing::Combine(::testing::Values(0.0, 0.01, 0.05, 0.2),
                       ::testing::Values(PublicSamplingMode::kRound,
                                         PublicSamplingMode::kCeil,
                                         PublicSamplingMode::kBernoulli)));

// ---------------------------------------------------------------------------
// Property: FedRecAttack uploads satisfy the kappa and C constraints of
// Eq. (9) for every (kappa, C) combination.
// ---------------------------------------------------------------------------

class AttackConstraintProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, float>> {};

TEST_P(AttackConstraintProperty, UploadsSatisfyEq9) {
  const auto [kappa, clip] = GetParam();
  SyntheticConfig data_config;
  data_config.num_users = 50;
  data_config.num_items = 70;
  data_config.mean_interactions_per_user = 10.0;
  data_config.seed = 3;
  const Dataset data = GenerateSynthetic(data_config);
  Rng rng(4);
  const auto view = PublicInteractions::Sample(data, 0.2, rng,
                                               PublicSamplingMode::kCeil);

  FedRecAttackConfig config;
  config.target_items = {7, 11};
  config.kappa = kappa;
  config.clip_norm = clip;
  config.rec_k = 5;
  config.approx_epochs_first = 5;
  config.seed = 6;
  FedRecAttack attack(config, &view, data.num_users(), 6);

  FedConfig fed;
  fed.model.dim = 6;
  Rng model_rng(8);
  MfModel model(data.num_items(), fed.model, model_rng);
  RoundContext context;
  context.model = &model;
  context.config = &fed;
  context.num_benign_users = data.num_users();

  std::vector<std::uint32_t> malicious;
  for (std::uint32_t i = 0; i < 3; ++i) {
    malicious.push_back(static_cast<std::uint32_t>(data.num_users() + i));
  }
  for (int round = 0; round < 3; ++round) {
    const auto updates = attack.ProduceUpdates(context, malicious);
    for (const ClientUpdate& update : updates) {
      EXPECT_LE(update.item_gradients.CountNonZeroRows(), kappa);
      EXPECT_LE(update.item_gradients.MaxRowNorm(), clip * 1.001f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AttackConstraintProperty,
    ::testing::Combine(::testing::Values<std::size_t>(2, 10, 20, 60),
                       ::testing::Values(0.1f, 1.0f, 5.0f)));

// ---------------------------------------------------------------------------
// Property: metric values always live in [0, 1], across model seeds and
// target choices.
// ---------------------------------------------------------------------------

class MetricsRangeProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(MetricsRangeProperty, AllMetricsInUnitInterval) {
  const auto [seed, target] = GetParam();
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.mean_interactions_per_user = 10.0;
  config.seed = static_cast<std::uint64_t>(seed);
  const Dataset full = GenerateSynthetic(config);
  Rng rng(static_cast<std::uint64_t>(seed) + 1);
  const LeaveOneOutSplit split = SplitLeaveOneOut(full, rng);

  MetricsConfig metrics_config;
  metrics_config.hr_negatives = 20;
  Evaluator evaluator(split.train, split.test_items, metrics_config, 11);

  Matrix users(split.train.num_users(), 8);
  Matrix items(split.train.num_items(), 8);
  users.FillGaussian(rng, 0.0f, 0.5f);
  items.FillGaussian(rng, 0.0f, 0.5f);

  const MetricsResult r = evaluator.Evaluate(users, items, {target}, nullptr);
  for (double er : r.er_at) {
    EXPECT_GE(er, 0.0);
    EXPECT_LE(er, 1.0);
  }
  EXPECT_GE(r.ndcg, 0.0);
  EXPECT_LE(r.ndcg, 1.0);
  EXPECT_GE(r.hit_ratio, 0.0);
  EXPECT_LE(r.hit_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricsRangeProperty,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values<std::uint32_t>(0, 40, 79)));

// ---------------------------------------------------------------------------
// Property: TopK = sorted prefix, for random score vectors of all sizes.
// ---------------------------------------------------------------------------

class TopKProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopKProperty, PrefixOfFullOrdering) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 131 + k));
  std::vector<float> scores(n);
  for (auto& s : scores) s = rng.NextFloat();

  const auto top = TopKIndicesExcludingSorted(
      scores, static_cast<std::size_t>(k), std::span<const std::uint32_t>());
  EXPECT_EQ(top.size(), static_cast<std::size_t>(std::min(n, k)));
  // Descending and a true prefix: no excluded index may beat the last kept.
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(scores[top[i - 1]], scores[top[i]]);
  }
  if (!top.empty()) {
    const float worst_kept = scores[top.back()];
    std::size_t better = 0;
    for (float s : scores) {
      if (s > worst_kept) ++better;
    }
    EXPECT_LE(better, top.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopKProperty,
                         ::testing::Combine(::testing::Values(1, 10, 100, 1000),
                                            ::testing::Values(1, 5, 64)));

}  // namespace
}  // namespace fedrec
