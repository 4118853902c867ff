#include "attack/fedrecattack.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/kernels.h"
#include "common/math.h"
#include "common/threadpool.h"
#include "data/synthetic.h"
#include "model/bpr.h"
#include "model/topk.h"

namespace fedrec {
namespace {

struct AttackTestSetup {
  Dataset data;
  PublicInteractions view;
  MfModel model;
  FedConfig fed;
};

AttackTestSetup MakeSetup(double xi, std::uint64_t seed, std::size_t users = 40,
                std::size_t items = 60) {
  SyntheticConfig config;
  config.num_users = users;
  config.num_items = items;
  config.mean_interactions_per_user = 12.0;
  config.seed = seed;
  AttackTestSetup setup{GenerateSynthetic(config), {}, {}, {}};
  Rng rng(seed + 1);
  setup.view = PublicInteractions::Sample(setup.data, xi, rng,
                                          PublicSamplingMode::kCeil);
  setup.fed.model.dim = 6;
  Rng model_rng(seed + 2);
  setup.model = MfModel(items, setup.fed.model, model_rng);
  return setup;
}

FedRecAttackConfig MakeAttackConfig(std::vector<std::uint32_t> targets) {
  FedRecAttackConfig config;
  config.target_items = std::move(targets);
  config.kappa = 12;
  config.clip_norm = 0.5f;
  config.rec_k = 5;
  config.approx_epochs_first = 10;
  config.approx_epochs_round = 2;
  config.seed = 3;
  return config;
}

RoundContext MakeContext(const AttackTestSetup& setup) {
  RoundContext context;
  context.model = &setup.model;
  context.config = &setup.fed;
  context.num_benign_users = setup.data.num_users();
  return context;
}

/// Reference implementation of L_atk (Eq. 15-16) used for gradient checking.
double ReferenceAttackLoss(const Matrix& u_hat, const Matrix& items,
                           const PublicInteractions& view,
                           const std::vector<std::uint32_t>& targets,
                           std::size_t rec_k) {
  std::vector<std::uint32_t> sorted_targets = targets;
  std::sort(sorted_targets.begin(), sorted_targets.end());
  double total = 0.0;
  for (std::size_t u = 0; u < u_hat.rows(); ++u) {
    std::vector<float> scores(items.rows());
    for (std::size_t j = 0; j < items.rows(); ++j) {
      scores[j] = Dot(u_hat.Row(u), items.Row(j));
    }
    const auto& public_items = view.UserItems(u);
    const auto rec = TopKIndicesExcludingSorted(scores, rec_k, public_items);
    double boundary = 0.0;
    bool found = false;
    for (std::size_t r = rec.size(); r-- > 0;) {
      if (!std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                              rec[r])) {
        boundary = scores[rec[r]];
        found = true;
        break;
      }
    }
    if (!found) continue;
    for (std::uint32_t t : sorted_targets) {
      if (std::binary_search(public_items.begin(), public_items.end(), t)) {
        continue;
      }
      total += AttackG(boundary - static_cast<double>(scores[t]));
    }
  }
  return total;
}

TEST(FedRecAttackTest, ApproximateUsersReducesPublicLoss) {
  AttackTestSetup setup = MakeSetup(0.3, 10);
  FedRecAttack attack(MakeAttackConfig({5}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);

  auto public_loss = [&](const Matrix& u_hat) {
    double total = 0.0;
    std::size_t pairs = 0;
    Rng rng(77);
    for (std::size_t u = 0; u < setup.data.num_users(); ++u) {
      const auto& pos = setup.view.UserItems(u);
      for (std::uint32_t p : pos) {
        // Average over a few fixed negatives.
        for (int k = 0; k < 3; ++k) {
          const auto neg = static_cast<std::uint32_t>(
              rng.NextBounded(setup.data.num_items()));
          if (std::binary_search(pos.begin(), pos.end(), neg)) continue;
          const double x =
              static_cast<double>(Dot(u_hat.Row(u),
                                      setup.model.item_factors().Row(p))) -
              static_cast<double>(Dot(u_hat.Row(u),
                                      setup.model.item_factors().Row(neg)));
          total += BprPairLossAndCoefficient(x).loss;
          ++pairs;
        }
      }
    }
    return total / static_cast<double>(pairs);
  };

  const double before = public_loss(attack.approximated_users());
  attack.ApproximateUsers(setup.model.item_factors(), 25);
  const double after = public_loss(attack.approximated_users());
  EXPECT_LT(after, before);
}

TEST(FedRecAttackTest, PoisonGradientMatchesFiniteDifferences) {
  AttackTestSetup setup = MakeSetup(0.4, 20, /*users=*/10, /*items=*/15);
  FedRecAttackConfig config = MakeAttackConfig({3});
  config.rec_k = 4;
  config.step_size = 1.0f;
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  attack.ApproximateUsers(setup.model.item_factors(), 15);

  Matrix items = setup.model.item_factors();
  const Matrix grad = attack.ComputePoisonGradient(items, nullptr);
  const Matrix& u_hat = attack.approximated_users();

  // Finite differences on the target row and a couple of boundary-candidate
  // rows. h small enough to not flip any top-K membership generically.
  const double h = 1e-4;
  std::size_t checked = 0;
  for (std::size_t row : {3u, 0u, 7u}) {
    for (std::size_t d = 0; d < items.cols(); ++d) {
      Matrix up = items, down = items;
      up.At(row, d) += static_cast<float>(h);
      down.At(row, d) -= static_cast<float>(h);
      const double numeric =
          (ReferenceAttackLoss(u_hat, up, setup.view, {3}, 4) -
           ReferenceAttackLoss(u_hat, down, setup.view, {3}, 4)) /
          (2 * h);
      EXPECT_NEAR(grad.At(row, d), numeric, 2e-2)
          << "row " << row << " dim " << d;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(FedRecAttackTest, TargetRowGradientPointsAgainstUsers) {
  // The target row of nabla~V must have a negative projection onto the mean
  // approximated user vector (server subtracts the gradient, raising scores).
  AttackTestSetup setup = MakeSetup(0.3, 30);
  FedRecAttack attack(MakeAttackConfig({7}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  attack.ApproximateUsers(setup.model.item_factors(), 15);
  const Matrix grad =
      attack.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  const Matrix& u_hat = attack.approximated_users();
  double projection = 0.0;
  for (std::size_t u = 0; u < u_hat.rows(); ++u) {
    projection += Dot(grad.Row(7), u_hat.Row(u));
  }
  EXPECT_LT(projection, 0.0);
}

TEST(FedRecAttackTest, UploadRespectsKappaAndClip) {
  AttackTestSetup setup = MakeSetup(0.3, 40);
  FedRecAttackConfig config = MakeAttackConfig({2, 9});
  config.kappa = 8;
  config.clip_norm = 0.25f;
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users()),
      static_cast<std::uint32_t>(setup.data.num_users() + 1)};
  const auto updates = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(updates.size(), 2u);
  for (const ClientUpdate& update : updates) {
    EXPECT_LE(update.item_gradients.row_count(), 8u);
    EXPECT_LE(update.item_gradients.CountNonZeroRows(), 8u);
    EXPECT_LE(update.item_gradients.MaxRowNorm(), 0.25f * 1.001f);
    // Targets always belong to the uploaded item set (Eq. 21).
    EXPECT_TRUE(update.item_gradients.Contains(2));
    EXPECT_TRUE(update.item_gradients.Contains(9));
  }
}

TEST(FedRecAttackTest, ItemSetFixedAcrossRounds) {
  AttackTestSetup setup = MakeSetup(0.3, 50);
  FedRecAttack attack(MakeAttackConfig({4}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users())};
  const auto first = attack.ProduceUpdates(context, malicious);
  const auto second = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].item_gradients.row_ids(), second[0].item_gradients.row_ids());
}

TEST(FedRecAttackTest, RemainderSubtractionLimitsSecondUpload) {
  AttackTestSetup setup = MakeSetup(0.3, 60);
  FedRecAttackConfig config = MakeAttackConfig({4});
  config.clip_norm = 100.0f;  // clip never binds -> first upload consumes all
  config.kappa = setup.data.num_items();  // no truncation
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users()),
      static_cast<std::uint32_t>(setup.data.num_users() + 1)};
  const auto updates = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(updates.size(), 2u);
  // The second client's rows over the overlap with the first must be ~zero
  // (Eq. 24: the first client uploaded the full gradient there).
  double second_overlap_norm = 0.0;
  for (std::size_t row : updates[1].item_gradients.row_ids()) {
    if (updates[0].item_gradients.Contains(row)) {
      second_overlap_norm += L2Norm(updates[1].item_gradients.Row(row));
    }
  }
  EXPECT_NEAR(second_overlap_norm, 0.0, 1e-4);
}

TEST(FedRecAttackTest, AblationNoPublicDataProducesZeroGradient) {
  AttackTestSetup setup = MakeSetup(0.0, 70);
  FedRecAttack attack(MakeAttackConfig({5}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users())};
  const auto updates = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(updates.size(), 1u);
  // xi = 0: the attacker cannot approximate U, so uploads carry no signal.
  EXPECT_EQ(updates[0].item_gradients.CountNonZeroRows(), 0u);
}

TEST(FedRecAttackTest, UserSubsamplingScalesGradient) {
  AttackTestSetup setup = MakeSetup(0.5, 80);
  FedRecAttackConfig full_config = MakeAttackConfig({5});
  FedRecAttackConfig sub_config = MakeAttackConfig({5});
  sub_config.users_per_step = setup.data.num_users() / 2;

  FedRecAttack full(full_config, &setup.view, setup.data.num_users(),
                    setup.fed.model.dim);
  FedRecAttack sub(sub_config, &setup.view, setup.data.num_users(),
                   setup.fed.model.dim);
  full.ApproximateUsers(setup.model.item_factors(), 15);
  sub.ApproximateUsers(setup.model.item_factors(), 15);

  const Matrix g_full =
      full.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  const Matrix g_sub =
      sub.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  // Same order of magnitude on the target row thanks to the n/subset scaling.
  const float n_full = L2Norm(g_full.Row(5));
  const float n_sub = L2Norm(g_sub.Row(5));
  ASSERT_GT(n_full, 0.0f);
  ASSERT_GT(n_sub, 0.0f);
  EXPECT_LT(n_sub / n_full, 4.0f);
  EXPECT_GT(n_sub / n_full, 0.25f);
}

/// The poison gradient summed the way the single-pass implementation did:
/// one dense accumulator per chunk c = [c*n/T, (c+1)*n/T) of `users`, users
/// scored in tiles of 8 from each chunk's first user, chunk sums added in
/// chunk order, then the whole matrix scaled. Counts the users whose top-K
/// list holds only targets in `no_boundary`.
Matrix ReferenceChunkedGradient(const Matrix& u_hat, const Matrix& items,
                                const PublicInteractions& view,
                                const std::vector<std::uint32_t>& targets,
                                std::size_t rec_k,
                                const std::vector<std::uint32_t>& users,
                                double scale, std::size_t num_chunks,
                                std::size_t* no_boundary) {
  std::vector<std::uint32_t> sorted_targets = targets;
  std::sort(sorted_targets.begin(), sorted_targets.end());
  const std::size_t num_items = items.rows();
  const std::size_t dim = items.cols();
  std::vector<float> packed(kernels::PackedItemsSize(num_items, dim));
  kernels::PackItems(items.Data().data(), num_items, dim, packed.data());
  std::vector<Matrix> partial(num_chunks, Matrix(num_items, dim));
  *no_boundary = 0;
  constexpr std::size_t kTile = 8;
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    Matrix& grad = partial[chunk];
    const std::size_t begin = chunk * users.size() / num_chunks;
    const std::size_t end = (chunk + 1) * users.size() / num_chunks;
    std::vector<float> gathered(kTile * dim);
    std::vector<float> scores(kTile * num_items);
    for (std::size_t tile_begin = begin; tile_begin < end;
         tile_begin += kTile) {
      const std::size_t tile = std::min(kTile, end - tile_begin);
      for (std::size_t t = 0; t < tile; ++t) {
        const auto src = u_hat.Row(users[tile_begin + t]);
        std::copy(src.begin(), src.end(), gathered.begin() + t * dim);
      }
      kernels::ScoreBlockPacked(gathered.data(), tile, packed.data(), num_items,
                                dim, scores.data(), num_items);
      for (std::size_t t = 0; t < tile; ++t) {
        const std::uint32_t user = users[tile_begin + t];
        const std::span<const float> user_scores(scores.data() + t * num_items,
                                                 num_items);
        const auto& public_items = view.UserItems(user);
        const auto rec =
            TopKIndicesExcludingSorted(user_scores, rec_k, public_items);
        bool has_boundary = false;
        std::uint32_t boundary_item = 0;
        for (std::size_t r = rec.size(); r-- > 0;) {
          if (!std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                                  rec[r])) {
            boundary_item = rec[r];
            has_boundary = true;
            break;
          }
        }
        if (!has_boundary) {
          ++*no_boundary;
          continue;
        }
        const double boundary_score = user_scores[boundary_item];
        for (std::uint32_t target : sorted_targets) {
          if (std::binary_search(public_items.begin(), public_items.end(),
                                 target)) {
            continue;
          }
          const double s =
              boundary_score - static_cast<double>(user_scores[target]);
          const float w = static_cast<float>(AttackGPrime(s));
          if (w == 0.0f) continue;
          Axpy(w, u_hat.Row(user), grad.Row(boundary_item));
          Axpy(-w, u_hat.Row(user), grad.Row(target));
        }
      }
    }
  }
  Matrix gradient = std::move(partial[0]);
  for (std::size_t c = 1; c < num_chunks; ++c) gradient.Add(partial[c]);
  if (scale != 1.0) Scale(static_cast<float>(scale), gradient.Data());
  return gradient;
}

/// True when `a` and `b` have the same shape and the same bits everywhere
/// (so +0.0 and -0.0 differ). Reports the first differing element.
::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.Data()[i], &b.Data()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "row " << i / a.cols() << " dim " << i % a.cols() << ": "
             << a.Data()[i] << " vs " << b.Data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Pool sizes under test; 0 stands for no pool at all.
constexpr std::size_t kPoolSizes[] = {0, 1, 2, 3, 4, 8};

struct Pools {
  Pools() {
    for (std::size_t threads : kPoolSizes) {
      if (threads > 0) owned.push_back(std::make_unique<ThreadPool>(threads));
    }
  }
  ThreadPool* Get(std::size_t threads) const {
    for (const auto& pool : owned) {
      if (pool->thread_count() == threads) return pool.get();
    }
    return nullptr;
  }
  std::vector<std::unique_ptr<ThreadPool>> owned;
};

std::size_t ChunkCount(const ThreadPool* pool, std::size_t users) {
  if (pool == nullptr) return 1;
  return std::min<std::size_t>(pool->thread_count(),
                               std::max<std::size_t>(1, users));
}

double StepScale(const FedRecAttackConfig& config, std::size_t num_users) {
  double scale = static_cast<double>(config.step_size);
  if (config.users_per_step > 0 && config.users_per_step < num_users) {
    scale *= static_cast<double>(num_users) /
             static_cast<double>(config.users_per_step);
  }
  return scale;
}

/// Runs one fresh attack at `config` on `pool` and checks its gradient
/// against the chunked reference, bit for bit. Returns the reference's
/// no-boundary user count.
std::size_t ExpectMatchesReference(const AttackTestSetup& setup,
                                   const FedRecAttackConfig& config,
                                   const Matrix& items, ThreadPool* pool) {
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  attack.ApproximateUsers(setup.model.item_factors(), 10);
  const Matrix got = attack.ComputePoisonGradient(items, pool);
  const std::vector<std::uint32_t>& users = attack.last_step_users();
  std::size_t no_boundary = 0;
  const Matrix want = ReferenceChunkedGradient(
      attack.approximated_users(), items, setup.view, config.target_items,
      config.rec_k, users, StepScale(config, setup.data.num_users()),
      ChunkCount(pool, users.size()), &no_boundary);
  EXPECT_TRUE(BitIdentical(got, want))
      << "threads=" << (pool == nullptr ? 0 : pool->thread_count())
      << " users_per_step=" << config.users_per_step
      << " targets=" << config.target_items.size()
      << " rec_k=" << config.rec_k;
  EXPECT_GT(got.CountNonZeroRows(), 0u);
  return no_boundary;
}

TEST(FedRecAttackTest, GradientBitIdenticalToChunkedReference) {
  const AttackTestSetup setup = MakeSetup(0.4, 90);
  const Pools pools;
  const std::vector<std::vector<std::uint32_t>> target_sets = {{5}, {2, 9}};
  for (const auto& targets : target_sets) {
    for (std::size_t users_per_step : {std::size_t{0},
                                       setup.data.num_users() / 2}) {
      for (std::size_t threads : kPoolSizes) {
        FedRecAttackConfig config = MakeAttackConfig(targets);
        config.users_per_step = users_per_step;
        ExpectMatchesReference(setup, config, setup.model.item_factors(),
                               pools.Get(threads));
      }
    }
  }
}

TEST(FedRecAttackTest, GradientBitIdenticalWhenRecKCoversCatalogue) {
  const AttackTestSetup setup = MakeSetup(0.4, 91);
  const Pools pools;
  FedRecAttackConfig config = MakeAttackConfig({2, 9});
  config.rec_k = setup.data.num_items() + 3;
  for (std::size_t threads : kPoolSizes) {
    ExpectMatchesReference(setup, config, setup.model.item_factors(),
                           pools.Get(threads));
  }
}

TEST(FedRecAttackTest, GradientBitIdenticalWhenTopKIsAllTargets) {
  // Point both target rows along the mean approximated user, far out, so
  // that most users rank the two targets first: with rec_k = 2 their list
  // has no boundary item and they add nothing.
  const AttackTestSetup setup = MakeSetup(0.4, 92);
  const Pools pools;
  FedRecAttackConfig config = MakeAttackConfig({2, 9});
  config.rec_k = 2;
  FedRecAttack probe(config, &setup.view, setup.data.num_users(),
                     setup.fed.model.dim);
  probe.ApproximateUsers(setup.model.item_factors(), 10);
  const Matrix& u_hat = probe.approximated_users();
  std::vector<float> mean(u_hat.cols(), 0.0f);
  for (std::size_t u = 0; u < u_hat.rows(); ++u) Axpy(1.0f, u_hat.Row(u), mean);
  Matrix items = setup.model.item_factors();
  for (std::uint32_t target : config.target_items) {
    for (std::size_t d = 0; d < items.cols(); ++d) {
      items.At(target, d) = 100.0f * mean[d];
    }
  }
  for (std::size_t threads : kPoolSizes) {
    const std::size_t no_boundary =
        ExpectMatchesReference(setup, config, items, pools.Get(threads));
    EXPECT_GT(no_boundary, 0u);
    EXPECT_LT(no_boundary, setup.data.num_users());
  }
}

TEST(FedRecAttackTest, SecondCallOnNewItemsEqualsFreshAttack) {
  // Scratch kept from a first call (other V, other chunk count, a stale
  // output matrix) must not leak into the next call.
  const AttackTestSetup setup = MakeSetup(0.4, 93);
  const Pools pools;
  const FedRecAttackConfig config = MakeAttackConfig({2, 9});
  const Matrix& first_items = setup.model.item_factors();
  Matrix second_items = first_items;
  Rng rng(94);
  for (float& v : second_items.Data()) {
    v += static_cast<float>(rng.NextGaussian(0.0, 0.05));
  }

  FedRecAttack reused(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  reused.ApproximateUsers(first_items, 10);
  Matrix gradient = reused.ComputePoisonGradient(first_items, pools.Get(3));
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    ThreadPool* pool = pools.Get(threads);
    reused.ComputePoisonGradientInto(second_items, pool, gradient);
    FedRecAttack fresh(config, &setup.view, setup.data.num_users(),
                       setup.fed.model.dim);
    fresh.ApproximateUsers(first_items, 10);
    EXPECT_TRUE(
        BitIdentical(gradient, fresh.ComputePoisonGradient(second_items, pool)))
        << "threads=" << threads;
  }
}

/// The serial reference for Eq. 19: each epoch is TrainBprEpoch over D' on
/// a copy of V with update_items = false.
/// It replays the attack's stream from the attack's seed, starting with the
/// Gaussian initialisation of U-hat, so its rng stays in step with the
/// attack's while the two draw the same values.
struct SerialApproximation {
  SerialApproximation(const FedRecAttackConfig& config,
                      const PublicInteractions& view, std::size_t dim)
      : rng(config.seed),
        u_hat(view.num_users(), dim),
        interactions(view.AllInteractions()) {
    u_hat.FillGaussian(rng, 0.0f, 0.1f);
    for (std::size_t u = 0; u < view.num_users(); ++u) {
      positives.push_back(view.UserItems(u));
    }
    options.learning_rate = config.approx_lr;
    options.update_users = true;
    options.update_items = false;
  }

  void Run(const Matrix& item_factors, std::size_t epochs) {
    if (interactions.empty()) return;
    Matrix v_copy = item_factors;
    for (std::size_t e = 0; e < epochs; ++e) {
      TrainBprEpoch(u_hat, v_copy, interactions, positives, options, rng);
    }
  }

  Rng rng;
  Matrix u_hat;
  std::vector<Interaction> interactions;
  std::vector<std::vector<std::uint32_t>> positives;
  BprTrainOptions options;
};

/// Runs one attack through ApproximateUsers calls of 30, 0, 2 and 1
/// epochs on `pool`, each on a freshly perturbed V and each followed by a
/// subsampled ComputePoisonGradientInto, against the serial oracle. U-hat,
/// the sampled users and the gradient must match bit for bit after every
/// call; the last two only match when the attack left its stream where
/// TrainBprEpoch leaves it.
void ExpectApproximationMatchesSerial(const PublicInteractions& view,
                                      std::size_t num_items,
                                      FedRecAttackConfig config,
                                      ThreadPool* pool,
                                      const std::string& label) {
  constexpr std::size_t kDim = 6;
  const std::size_t num_users = view.num_users();
  config.users_per_step = std::max<std::size_t>(1, num_users / 2);
  FedRecAttack attack(config, &view, num_users, kDim);
  SerialApproximation oracle(config, view, kDim);
  ASSERT_TRUE(BitIdentical(attack.approximated_users(), oracle.u_hat));

  Rng v_rng(num_users * 1000 + num_items);
  Matrix items(num_items, kDim);
  items.FillGaussian(v_rng, 0.0f, 0.1f);
  Matrix gradient;
  for (std::size_t epochs :
       {std::size_t{30}, std::size_t{0}, std::size_t{2}, std::size_t{1}}) {
    const std::string where = label + " threads=" +
                              std::to_string(pool == nullptr
                                                 ? 0
                                                 : pool->thread_count()) +
                              " epochs=" + std::to_string(epochs);
    for (float& v : items.Data()) {
      v += static_cast<float>(v_rng.NextGaussian(0.0, 0.05));
    }
    attack.ApproximateUsers(items, epochs, pool);
    oracle.Run(items, epochs);
    ASSERT_TRUE(BitIdentical(attack.approximated_users(), oracle.u_hat))
        << where;

    attack.ComputePoisonGradientInto(items, pool, gradient);
    if (view.TotalCount() == 0) {
      EXPECT_EQ(gradient.CountNonZeroRows(), 0u) << where;
      continue;
    }
    std::vector<std::uint32_t> users;
    if (config.users_per_step < num_users) {
      for (std::size_t u : oracle.rng.SampleWithoutReplacement(
               num_users, config.users_per_step)) {
        users.push_back(static_cast<std::uint32_t>(u));
      }
    } else {
      for (std::uint32_t u = 0; u < num_users; ++u) users.push_back(u);
    }
    ASSERT_EQ(attack.last_step_users(), users) << where;
    std::size_t no_boundary = 0;
    const Matrix want = ReferenceChunkedGradient(
        oracle.u_hat, items, view, config.target_items, config.rec_k, users,
        StepScale(config, num_users), ChunkCount(pool, users.size()),
        &no_boundary);
    EXPECT_TRUE(BitIdentical(gradient, want)) << where;
  }
}

/// D' sampled from a seeded synthetic dataset.
PublicInteractions SampleView(std::size_t users, std::size_t items,
                              double xi, std::uint64_t seed,
                              PublicSamplingMode mode) {
  SyntheticConfig config;
  config.num_users = users;
  config.num_items = items;
  config.mean_interactions_per_user = 12.0;
  config.seed = seed;
  const Dataset data = GenerateSynthetic(config);
  Rng rng(seed + 1);
  return PublicInteractions::Sample(data, xi, rng, mode);
}

TEST(FedRecAttackTest, ApproximationBitIdenticalToSerialAcrossShapes) {
  const Pools pools;
  struct Shape {
    std::size_t users, items;
    double xi;
    std::uint64_t seed;
  };
  // 37 users divide by none of the pool sizes; 5 users are fewer than 8
  // threads; 150 users give every pool several apply tasks.
  const Shape shapes[] = {{40, 60, 0.3, 201},
                          {37, 50, 0.1, 202},
                          {5, 30, 0.5, 203},
                          {150, 80, 0.2, 204}};
  for (const Shape& shape : shapes) {
    const PublicInteractions view = SampleView(
        shape.users, shape.items, shape.xi, shape.seed,
        PublicSamplingMode::kCeil);
    for (std::size_t threads : kPoolSizes) {
      ExpectApproximationMatchesSerial(
          view, shape.items, MakeAttackConfig({2, 9}), pools.Get(threads),
          "users=" + std::to_string(shape.users));
    }
  }
}

TEST(FedRecAttackTest, ApproximationBitIdenticalWithUsersLackingPublicData) {
  // Rounding xi * |V+_i| leaves the lighter users with no public item.
  const PublicInteractions view =
      SampleView(60, 50, 0.05, 205, PublicSamplingMode::kRound);
  ASSERT_GT(view.UsersWithPublicData(), 0u);
  ASSERT_LT(view.UsersWithPublicData(), view.num_users());
  const Pools pools;
  for (std::size_t threads : kPoolSizes) {
    ExpectApproximationMatchesSerial(view, 50, MakeAttackConfig({2, 9}),
                                     pools.Get(threads), "sparse");
  }
}

TEST(FedRecAttackTest, ApproximationBitIdenticalWhenNegativeDrawsRunOut) {
  // User 0 holds every item but one, so a negative draw hits its positives
  // with probability 29/30 and about one in nine of its 64-attempt loops
  // runs out, leaving a positive as the step's negative.
  constexpr std::size_t kUsers = 9;
  constexpr std::size_t kItems = 30;
  std::vector<Interaction> tuples;
  for (std::uint32_t item = 0; item + 1 < kItems; ++item) {
    tuples.push_back({0, item});
  }
  for (std::uint32_t u = 1; u < kUsers; ++u) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      const auto item = static_cast<std::uint32_t>((u * 7 + k * 5) % kItems);
      tuples.push_back({u, item});
    }
  }
  auto data = Dataset::FromInteractions("dense", kUsers, kItems, tuples);
  ASSERT_TRUE(data.ok());
  Rng rng(206);
  const PublicInteractions view =
      PublicInteractions::Sample(data.value(), 1.0, rng);
  ASSERT_EQ(view.UserItems(0).size(), kItems - 1);
  const Pools pools;
  for (std::size_t threads : kPoolSizes) {
    ExpectApproximationMatchesSerial(view, kItems, MakeAttackConfig({29}),
                                     pools.Get(threads), "dense");
  }
}

TEST(FedRecAttackTest, ApproximationWithoutPublicDataLeavesUsersUntouched) {
  const PublicInteractions view =
      SampleView(40, 60, 0.0, 207, PublicSamplingMode::kCeil);
  ASSERT_EQ(view.TotalCount(), 0u);
  const Pools pools;
  for (std::size_t threads : kPoolSizes) {
    ExpectApproximationMatchesSerial(view, 60, MakeAttackConfig({2, 9}),
                                     pools.Get(threads), "xi=0");
  }
}

TEST(FedRecAttackTest, RequiresTargets) {
  AttackTestSetup setup = MakeSetup(0.3, 100);
  FedRecAttackConfig config = MakeAttackConfig({});
  EXPECT_DEATH(FedRecAttack(config, &setup.view, setup.data.num_users(),
                            setup.fed.model.dim),
               "target");
}

}  // namespace
}  // namespace fedrec
