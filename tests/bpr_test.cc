#include "model/bpr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "common/math.h"
#include "data/synthetic.h"

namespace fedrec {
namespace {

TEST(SampleNegativesTest, ExcludesPositivesAndDistinct) {
  Rng rng(1);
  const std::vector<std::uint32_t> positives{1, 3, 5, 7};
  const auto negatives = SampleNegatives(positives, 20, 10, rng);
  EXPECT_EQ(negatives.size(), 10u);
  std::set<std::uint32_t> unique(negatives.begin(), negatives.end());
  EXPECT_EQ(unique.size(), 10u);
  for (std::uint32_t n : negatives) {
    EXPECT_FALSE(std::binary_search(positives.begin(), positives.end(), n));
    EXPECT_LT(n, 20u);
  }
}

TEST(SampleNegativesTest, DenseRegimeExact) {
  Rng rng(2);
  const std::vector<std::uint32_t> positives{0, 1, 2};
  // Complement has 2 items; request 5 -> get exactly the 2 available.
  const auto negatives = SampleNegatives(positives, 5, 5, rng);
  std::vector<std::uint32_t> sorted = negatives;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{3, 4}));
}

TEST(SampleNegativesTest, AllItemsPositiveYieldsEmpty) {
  Rng rng(3);
  const std::vector<std::uint32_t> positives{0, 1, 2};
  EXPECT_TRUE(SampleNegatives(positives, 3, 2, rng).empty());
}

TEST(SampleNegativesTest, ZeroCount) {
  Rng rng(4);
  EXPECT_TRUE(SampleNegatives({0}, 10, 0, rng).empty());
}

// --- Counterexample search against the sorted-set implementations ---------

/// The scan-and-bitmap sampler SampleNegativesInto replaced, kept verbatim
/// as the oracle its stamp-array form must match draw for draw.
void ReferenceSampleNegatives(const std::vector<std::uint32_t>& positives,
                              std::size_t num_items, std::size_t count,
                              Rng& rng, std::vector<std::uint32_t>& out) {
  const std::size_t complement =
      num_items > positives.size() ? num_items - positives.size() : 0;
  const std::size_t want = std::min(count, complement);
  out.clear();
  if (want == 0) return;
  if (want * 4 >= complement) {
    std::vector<std::uint32_t> pool;
    for (std::uint32_t item = 0; item < num_items; ++item) {
      if (!std::binary_search(positives.begin(), positives.end(), item)) {
        pool.push_back(item);
      }
    }
    for (std::size_t idx : rng.SampleWithoutReplacement(pool.size(), want)) {
      out.push_back(pool[idx]);
    }
  } else if (want <= 1024) {
    while (out.size() < want) {
      const auto item = static_cast<std::uint32_t>(rng.NextBounded(num_items));
      if (std::find(out.begin(), out.end(), item) != out.end()) continue;
      if (std::binary_search(positives.begin(), positives.end(), item)) continue;
      out.push_back(item);
    }
  } else {
    std::vector<bool> taken(num_items, false);
    while (out.size() < want) {
      const auto item = static_cast<std::uint32_t>(rng.NextBounded(num_items));
      if (taken[item]) continue;
      if (std::binary_search(positives.begin(), positives.end(), item)) continue;
      taken[item] = true;
      out.push_back(item);
    }
  }
}

struct NegativeShape {
  std::size_t num_items;
  std::size_t num_positives;
  std::size_t count;
};

std::vector<std::uint32_t> SortedSubset(std::size_t num_items,
                                        std::size_t size, Rng& rng) {
  std::vector<std::uint32_t> subset;
  for (std::size_t idx : rng.SampleWithoutReplacement(num_items, size)) {
    subset.push_back(static_cast<std::uint32_t>(idx));
  }
  std::sort(subset.begin(), subset.end());
  return subset;
}

TEST(SampleNegativesTest, StampSamplerMatchesReferenceDrawForDraw) {
  std::vector<NegativeShape> shapes = {
      {1, 0, 1},        {1, 0, 0},       {1, 1, 3},       {2, 0, 1},
      {10, 0, 0},       {10, 10, 4},     {100, 0, 24},    {100, 0, 25},
      {3706, 0, 300},   {1682, 40, 410}, {1682, 40, 411}, {1682, 41, 410},
      {6000, 100, 1024}, {6000, 100, 1025}, {8000, 50, 1987},
      {8000, 50, 1988}, {3706, 1000, 700}, {5000, 4999, 1}};
  // want*4 == complement - 1 (sparse), == complement and == complement + 1
  // (dense), on both sides of the old 1024 threshold.
  for (const std::size_t want : {3u, 50u, 1000u, 1100u}) {
    for (const std::size_t complement : {want * 4 - 1, want * 4, want * 4 + 1}) {
      shapes.push_back({complement + 7, 7, want});
    }
  }
  Rng shape_rng(2024);
  const std::size_t catalogues[] = {1, 2, 5, 40, 300, 1682, 3706, 6000};
  while (shapes.size() < 240) {
    const std::size_t num_items = catalogues[shape_rng.NextBounded(8)];
    const std::size_t num_positives =
        shape_rng.NextBounded(4) == 0
            ? 0
            : static_cast<std::size_t>(shape_rng.NextBounded(num_items + 1));
    const std::size_t count =
        static_cast<std::size_t>(shape_rng.NextBounded(num_items / 2 + 2));
    shapes.push_back({num_items, num_positives, count});
  }

  std::vector<std::uint32_t> got = {99, 98, 97};  // stale contents to drop
  std::vector<std::uint32_t> expected;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const NegativeShape& shape = shapes[s];
    SCOPED_TRACE(::testing::Message()
                 << "shape " << s << ": items " << shape.num_items
                 << " positives " << shape.num_positives << " count "
                 << shape.count);
    Rng setup(s + 1);
    const std::vector<std::uint32_t> positives =
        SortedSubset(shape.num_items, shape.num_positives, setup);
    Rng reference_rng(1000 + s);
    Rng rng(1000 + s);
    ReferenceSampleNegatives(positives, shape.num_items, shape.count,
                             reference_rng, expected);
    SampleNegativesInto(positives, shape.num_items, shape.count, rng, got);
    ASSERT_EQ(got, expected);
    ASSERT_EQ(rng.Next(), reference_rng.Next()) << "rng cursor diverged";
  }
}

/// The sorted-insert builder ComputeLocalBprGradientsInto replaced (one
/// RowMutable per row touch), kept as the oracle for the stamp-map form.
double ReferenceLocalGradients(std::span<const float> user_vector,
                               const Matrix& item_factors,
                               std::span<const std::uint32_t> positives,
                               std::span<const std::uint32_t> negatives,
                               float l2_reg, SparseRowMatrix& item_gradients,
                               std::vector<float>& user_gradient,
                               std::size_t& pair_count) {
  item_gradients.Reset(item_factors.cols());
  user_gradient.assign(user_vector.size(), 0.0f);
  pair_count = 0;
  double loss = 0.0;
  const std::size_t pairs = std::min(positives.size(), negatives.size());
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto v_pos = item_factors.Row(positives[p]);
    const auto v_neg = item_factors.Row(negatives[p]);
    const double x = static_cast<double>(Dot(user_vector, v_pos)) -
                     static_cast<double>(Dot(user_vector, v_neg));
    const BprPairResult pair = BprPairLossAndCoefficient(x);
    loss += pair.loss;
    const float c = static_cast<float>(pair.coefficient);
    std::span<float> grad_u(user_gradient);
    Axpy(c, v_pos, grad_u);
    Axpy(-c, v_neg, grad_u);
    Axpy(c, user_vector, item_gradients.RowMutable(positives[p]));
    Axpy(-c, user_vector, item_gradients.RowMutable(negatives[p]));
    ++pair_count;
  }
  if (l2_reg > 0.0f) {
    Axpy(l2_reg, user_vector, std::span<float>(user_gradient));
    for (std::size_t item : item_gradients.row_ids()) {
      Axpy(l2_reg, item_factors.Row(item), item_gradients.RowMutable(item));
    }
  }
  return loss;
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(LocalBprGradientsTest, StampBuilderMatchesSortedInsertBuilder) {
  const std::size_t num_items = 700;
  const std::size_t dim = 12;
  Rng rng(31);
  Matrix items(num_items, dim);
  items.FillGaussian(rng, 0.0f, 0.3f);
  SparseRowMatrix got;
  SparseRowMatrix expected;
  std::vector<float> got_user;
  std::vector<float> expected_user;
  std::size_t trial = 0;
  for (const std::size_t ratio : {1u, 2u, 3u}) {
    for (const float l2 : {0.0f, 0.01f}) {
      for (const std::size_t num_positives : {1u, 9u, 60u, 230u}) {
        SCOPED_TRACE(::testing::Message()
                     << "ratio " << ratio << " l2 " << l2 << " positives "
                     << num_positives);
        Rng setup(++trial);
        std::vector<float> user(dim);
        for (float& v : user) v = static_cast<float>(setup.NextGaussian());
        const std::vector<std::uint32_t> positives =
            SortedSubset(num_items, num_positives, setup);
        std::vector<std::uint32_t> negatives;
        SampleNegativesInto(positives, num_items, num_positives * ratio, setup,
                            negatives);
        setup.Shuffle(negatives);
        // Client pairing: `ratio` blocks of the positives, so every positive
        // row is touched `ratio` times.
        std::vector<std::uint32_t> paired;
        for (std::size_t r = 0; r < ratio; ++r) {
          paired.insert(paired.end(), positives.begin(), positives.end());
        }

        std::size_t expected_pairs = 0;
        const double expected_loss = ReferenceLocalGradients(
            user, items, paired, negatives, l2, expected, expected_user,
            expected_pairs);
        std::size_t got_pairs = 0;
        double got_loss = 0.0;
        for (int call = 0; call < 2; ++call) {
          // The second call refills warm buffers: zero growth events.
          const std::uint64_t before = SparseAllocationCount();
          got_loss = ComputeLocalBprGradientsInto(user, items, paired,
                                                  negatives, l2, got, got_user,
                                                  got_pairs);
          if (call == 1) {
            EXPECT_EQ(SparseAllocationCount() - before, 0u);
          }
        }
        ASSERT_EQ(got.row_ids(), expected.row_ids());
        for (std::size_t slot = 0; slot < got.row_count(); ++slot) {
          ASSERT_TRUE(SameBits(got.RowAtSlot(slot), expected.RowAtSlot(slot)))
              << "row " << got.row_ids()[slot];
        }
        EXPECT_TRUE(SameBits(got_user, expected_user));
        EXPECT_EQ(std::memcmp(&got_loss, &expected_loss, sizeof(double)), 0);
        EXPECT_EQ(got_pairs, expected_pairs);
        // The lookup was rebuilt: every row is found, and nothing else is.
        for (std::size_t row : got.row_ids()) {
          ASSERT_TRUE(got.Contains(row));
          EXPECT_TRUE(SameBits(got.Row(row), expected.Row(row)));
        }
        std::size_t absent = 0;
        for (std::size_t item = 0; item < num_items; ++item) {
          if (!got.Contains(item)) ++absent;
          EXPECT_EQ(got.Contains(item), expected.Contains(item));
        }
        EXPECT_EQ(absent + got.row_count(), num_items);
      }
    }
  }
}

TEST(BprPairTest, LossAndCoefficientDefinitions) {
  // At x=0: loss = -ln(0.5) = ln 2; dL/dx = -sigmoid(0) = -0.5.
  const auto r = BprPairLossAndCoefficient(0.0);
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(r.coefficient, -0.5, 1e-12);
  // Large positive difference: loss ~ 0, coefficient ~ 0.
  const auto good = BprPairLossAndCoefficient(20.0);
  EXPECT_NEAR(good.loss, 0.0, 1e-8);
  EXPECT_NEAR(good.coefficient, 0.0, 1e-8);
  // Large negative difference: loss ~ |x|, coefficient ~ -1.
  const auto bad = BprPairLossAndCoefficient(-20.0);
  EXPECT_NEAR(bad.loss, 20.0, 1e-7);
  EXPECT_NEAR(bad.coefficient, -1.0, 1e-8);
}

TEST(BprPairTest, CoefficientIsLossDerivative) {
  const double h = 1e-6;
  for (double x : {-3.0, -0.5, 0.0, 0.7, 2.0}) {
    const double numeric = (BprPairLossAndCoefficient(x + h).loss -
                            BprPairLossAndCoefficient(x - h).loss) /
                           (2 * h);
    EXPECT_NEAR(BprPairLossAndCoefficient(x).coefficient, numeric, 1e-5);
  }
}

/// Finite-difference check of the full local gradient: perturb every
/// parameter and compare against the analytic gradients.
TEST(LocalBprGradientsTest, MatchesFiniteDifferences) {
  Rng rng(5);
  const std::size_t dim = 4, num_items = 6;
  Matrix items(num_items, dim);
  items.FillGaussian(rng, 0.0f, 0.5f);
  std::vector<float> user(dim);
  for (auto& v : user) v = static_cast<float>(rng.NextGaussian(0.0, 0.5));
  const std::vector<std::uint32_t> positives{0, 2};
  const std::vector<std::uint32_t> negatives{1, 4};

  auto loss_at = [&](const std::vector<float>& u, const Matrix& V) {
    double total = 0.0;
    for (std::size_t p = 0; p < positives.size(); ++p) {
      const double x = static_cast<double>(Dot(u, V.Row(positives[p]))) -
                       static_cast<double>(Dot(u, V.Row(negatives[p])));
      total += BprPairLossAndCoefficient(x).loss;
    }
    return total;
  };

  const LocalBprGradients grads =
      ComputeLocalBprGradients(user, items, positives, negatives, 0.0f);
  EXPECT_EQ(grads.pair_count, 2u);
  EXPECT_NEAR(grads.loss, loss_at(user, items), 1e-6);

  const double h = 1e-3;
  // User gradient.
  for (std::size_t d = 0; d < dim; ++d) {
    std::vector<float> up = user, down = user;
    up[d] += static_cast<float>(h);
    down[d] -= static_cast<float>(h);
    const double numeric = (loss_at(up, items) - loss_at(down, items)) / (2 * h);
    EXPECT_NEAR(grads.user_gradient[d], numeric, 5e-3) << "dim " << d;
  }
  // Item gradients for every touched row.
  for (std::uint32_t row : {0u, 1u, 2u, 4u}) {
    ASSERT_TRUE(grads.item_gradients.Contains(row));
    for (std::size_t d = 0; d < dim; ++d) {
      Matrix up = items, down = items;
      up.At(row, d) += static_cast<float>(h);
      down.At(row, d) -= static_cast<float>(h);
      const double numeric = (loss_at(user, up) - loss_at(user, down)) / (2 * h);
      EXPECT_NEAR(grads.item_gradients.Row(row)[d], numeric, 5e-3)
          << "row " << row << " dim " << d;
    }
  }
  // Untouched rows have no gradient entry.
  EXPECT_FALSE(grads.item_gradients.Contains(3));
  EXPECT_FALSE(grads.item_gradients.Contains(5));
}

TEST(LocalBprGradientsTest, L2RegularizationAddsParameterTerm) {
  Rng rng(6);
  Matrix items(4, 3);
  items.FillGaussian(rng, 0.0f, 0.5f);
  std::vector<float> user{0.5f, -0.2f, 0.1f};
  const std::vector<std::uint32_t> pos{0};
  const std::vector<std::uint32_t> neg{1};
  const auto without = ComputeLocalBprGradients(user, items, pos, neg, 0.0f);
  const auto with = ComputeLocalBprGradients(user, items, pos, neg, 0.1f);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(with.user_gradient[d], without.user_gradient[d] + 0.1f * user[d],
                1e-6);
    EXPECT_NEAR(with.item_gradients.Row(0)[d],
                without.item_gradients.Row(0)[d] + 0.1f * items.At(0, d), 1e-6);
  }
}

TEST(LocalBprGradientsTest, UnequalListsZipToShorter) {
  Rng rng(7);
  Matrix items(5, 2);
  items.FillGaussian(rng, 0.0f, 0.5f);
  std::vector<float> user{1.0f, 1.0f};
  const auto grads =
      ComputeLocalBprGradients(user, items, {0, 1, 2}, {3}, 0.0f);
  EXPECT_EQ(grads.pair_count, 1u);
}

TEST(TrainBprTest, LossDecreasesOnStructuredData) {
  SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 120;
  config.mean_interactions_per_user = 15.0;
  config.seed = 8;
  const Dataset data = GenerateSynthetic(config);

  Rng rng(9);
  Matrix users(data.num_users(), 16);
  Matrix items(data.num_items(), 16);
  users.FillGaussian(rng, 0.0f, 0.1f);
  items.FillGaussian(rng, 0.0f, 0.1f);

  BprTrainOptions options;
  options.learning_rate = 0.05f;
  const double first = TrainBpr(users, items, data, options, 1, rng);
  const double later = TrainBpr(users, items, data, options, 15, rng);
  EXPECT_LT(later, first);
  EXPECT_LT(later, std::log(2.0));  // better than random ranking
}

TEST(TrainBprTest, FrozenItemsStayFixed) {
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  config.mean_interactions_per_user = 8.0;
  config.seed = 10;
  const Dataset data = GenerateSynthetic(config);

  Rng rng(11);
  Matrix users(data.num_users(), 8);
  Matrix items(data.num_items(), 8);
  users.FillGaussian(rng, 0.0f, 0.1f);
  items.FillGaussian(rng, 0.0f, 0.1f);
  const Matrix items_before = items;
  const Matrix users_before = users;

  BprTrainOptions options;
  options.update_items = false;
  TrainBpr(users, items, data, options, 3, rng);
  EXPECT_TRUE(items == items_before);   // V untouched
  EXPECT_FALSE(users == users_before);  // U trained
}

TEST(TrainBprTest, FrozenUsersStayFixed) {
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  config.seed = 12;
  const Dataset data = GenerateSynthetic(config);

  Rng rng(13);
  Matrix users(data.num_users(), 8);
  Matrix items(data.num_items(), 8);
  users.FillGaussian(rng, 0.0f, 0.1f);
  items.FillGaussian(rng, 0.0f, 0.1f);
  const Matrix users_before = users;

  BprTrainOptions options;
  options.update_users = false;
  TrainBpr(users, items, data, options, 2, rng);
  EXPECT_TRUE(users == users_before);
}

TEST(TrainBprTest, EmptyInteractionsNoOp) {
  Matrix users(3, 4), items(5, 4);
  BprTrainOptions options;
  Rng rng(14);
  const double loss = TrainBprEpoch(users, items, {}, {{}, {}, {}}, options, rng);
  EXPECT_DOUBLE_EQ(loss, 0.0);
}

}  // namespace
}  // namespace fedrec
