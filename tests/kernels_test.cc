#include "common/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"

namespace fedrec {
namespace {

/// Lengths crossing every code-path boundary of the kernels: empty, shorter
/// than one SIMD lane group, exactly one group, odd tails, multiples and
/// non-multiples of the 8-lane and 16-lane unroll widths.
const std::size_t kLengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                24, 31, 32, 33, 63, 64, 100, 257};

std::vector<float> RandomVector(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian(0.0, 1.0));
  return v;
}

/// abs tolerance scaled mildly with length: each float product is O(1) here,
/// and reassociation error grows with the number of terms.
float Tolerance(std::size_t n) {
  return 1e-5f * static_cast<float>(n > 0 ? n : 1);
}

TEST(KernelsTest, DotMatchesScalarReference) {
  Rng rng(1);
  for (std::size_t n : kLengths) {
    const std::vector<float> a = RandomVector(n, rng);
    const std::vector<float> b = RandomVector(n, rng);
    const float reference = kernels::ScalarDot(a.data(), b.data(), n);
    const float vectorized = kernels::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(vectorized, reference, Tolerance(n)) << "n=" << n;
  }
}

TEST(KernelsTest, DotEmptyIsZero) {
  EXPECT_EQ(kernels::Dot(nullptr, nullptr, 0), 0.0f);
  EXPECT_EQ(kernels::ScalarDot(nullptr, nullptr, 0), 0.0f);
}

TEST(KernelsTest, ShortDotAccumulatesInAscendingOrder) {
  // Lengths below one lane group accumulate in ascending index order like
  // ScalarDot (the detector's tiny-dimension feature extraction depends on
  // every row taking the identical operation sequence). The two compiled
  // functions may still differ by FP contraction (FMA in the dispatched
  // clone), so agreement is to within one fused rounding per term — and a
  // repeated call must be exactly deterministic.
  Rng rng(2);
  for (std::size_t n = 0; n < 8; ++n) {
    const std::vector<float> a = RandomVector(n, rng);
    const std::vector<float> b = RandomVector(n, rng);
    const float once = kernels::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(once, kernels::ScalarDot(a.data(), b.data(), n), 1e-6f)
        << "n=" << n;
    EXPECT_EQ(once, kernels::Dot(a.data(), b.data(), n)) << "n=" << n;
  }
}

TEST(KernelsTest, AxpyMatchesScalarReference) {
  Rng rng(3);
  for (std::size_t n : kLengths) {
    const std::vector<float> x = RandomVector(n, rng);
    const std::vector<float> y0 = RandomVector(n, rng);
    std::vector<float> expected = y0;
    std::vector<float> actual = y0;
    kernels::ScalarAxpy(0.37f, x.data(), expected.data(), n);
    kernels::Axpy(0.37f, x.data(), actual.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(actual[i], expected[i], 1e-6f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, BprUserStepEqualsDotDotAxpyAxpyBitwise) {
  // The fused step against the four calls it replaces, compared as bits.
  // Scales from 0.01 to 3 move x from the sigmoid's middle to its tails;
  // the last trial per dim reuses one item row as both positive and
  // negative.
  Rng rng(12);
  for (const std::size_t dim : {1u, 7u, 8u, 31u, 32u, 33u, 64u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const double scale = trial % 4 == 0 ? 3.0 : 0.01 * (1 + trial % 7);
      std::vector<float> user(dim), pos(dim), neg(dim);
      for (float& v : user) v = static_cast<float>(rng.NextGaussian(0, scale));
      for (float& v : pos) v = static_cast<float>(rng.NextGaussian(0, scale));
      for (float& v : neg) v = static_cast<float>(rng.NextGaussian(0, scale));
      if (trial == 39) neg = pos;
      const float lr = trial % 2 == 0 ? 0.05f : 0.3f;
      std::vector<float> expected = user;
      const double x =
          static_cast<double>(kernels::Dot(user.data(), pos.data(), dim)) -
          static_cast<double>(kernels::Dot(user.data(), neg.data(), dim));
      const float c = static_cast<float>(-Sigmoid(-x));
      kernels::Axpy(-lr * c, pos.data(), expected.data(), dim);
      kernels::Axpy(lr * c, neg.data(), expected.data(), dim);
      kernels::BprUserStep(user.data(), pos.data(), neg.data(), dim, lr);
      ASSERT_EQ(std::memcmp(user.data(), expected.data(), dim * sizeof(float)),
                0)
          << "dim=" << dim << " trial=" << trial;
    }
  }
}

TEST(KernelsTest, BlockMaximaMatchesScalarMax) {
  Rng rng(13);
  for (std::size_t n : kLengths) {
    const std::vector<float> x = RandomVector(n, rng);
    const std::size_t blocks = (n + kernels::kMaxBlock - 1) / kernels::kMaxBlock;
    std::vector<float> out(blocks + 1, std::numeric_limits<float>::quiet_NaN());
    kernels::BlockMaxima(x.data(), n, out.data());
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto first = x.begin() + static_cast<std::ptrdiff_t>(
                                         b * kernels::kMaxBlock);
      const auto last = x.begin() + static_cast<std::ptrdiff_t>(std::min(
                                        n, (b + 1) * kernels::kMaxBlock));
      EXPECT_EQ(out[b], *std::max_element(first, last))
          << "n=" << n << " b=" << b;
    }
    EXPECT_TRUE(std::isnan(out[blocks])) << "wrote past block " << blocks;
  }
}

TEST(KernelsTest, ScaleAndFill) {
  Rng rng(4);
  for (std::size_t n : kLengths) {
    std::vector<float> x = RandomVector(n, rng);
    std::vector<float> expected = x;
    for (auto& v : expected) v *= -2.5f;
    kernels::Scale(-2.5f, x.data(), n);
    EXPECT_EQ(x, expected) << "n=" << n;
    kernels::Fill(x.data(), 0.75f, n);
    for (float v : x) EXPECT_EQ(v, 0.75f);
  }
}

TEST(KernelsTest, L2NormSquaredMatchesScalarReference) {
  Rng rng(5);
  for (std::size_t n : kLengths) {
    const std::vector<float> x = RandomVector(n, rng);
    EXPECT_NEAR(kernels::L2NormSquared(x.data(), n),
                kernels::ScalarL2NormSquared(x.data(), n), Tolerance(n))
        << "n=" << n;
  }
}

TEST(KernelsTest, ScoreBlockMatchesScalarReferenceAcrossShapes) {
  Rng rng(6);
  // Users and items straddle the 4-user and 2-item register-tile widths; dims
  // straddle the 8-lane SIMD width, including odd tails.
  const std::size_t user_counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  const std::size_t item_counts[] = {0, 1, 2, 3, 5, 8, 13};
  const std::size_t dims[] = {1, 3, 7, 8, 9, 16, 31, 32, 33};
  for (std::size_t nu : user_counts) {
    for (std::size_t ni : item_counts) {
      for (std::size_t dim : dims) {
        const std::vector<float> users = RandomVector(nu * dim, rng);
        const std::vector<float> items = RandomVector(ni * dim, rng);
        std::vector<float> expected(nu * ni, -1.0f);
        std::vector<float> actual(nu * ni, -1.0f);
        kernels::ScalarScoreBlock(users.data(), nu, items.data(), ni, dim,
                                  expected.data(), ni);
        kernels::ScoreBlock(users.data(), nu, items.data(), ni, dim,
                            actual.data(), ni);
        for (std::size_t i = 0; i < nu * ni; ++i) {
          EXPECT_NEAR(actual[i], expected[i], Tolerance(dim))
              << "nu=" << nu << " ni=" << ni << " dim=" << dim << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsTest, PackItemsLayoutAndPadding) {
  Rng rng(9);
  const std::size_t ni = 11, dim = 5;  // final group has 3 valid lanes
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> packed(kernels::PackedItemsSize(ni, dim), -1.0f);
  kernels::PackItems(items.data(), ni, dim, packed.data());
  const std::size_t lanes = kernels::kScoreLanes;
  for (std::size_t j = 0; j < ni; ++j) {
    const std::size_t g = j / lanes, k = j % lanes;
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(packed[(g * dim + d) * lanes + k], items[j * dim + d]);
    }
  }
  // Padding lanes of the final partial group are zeroed.
  for (std::size_t j = ni; j < 2 * lanes; ++j) {
    const std::size_t g = j / lanes, k = j % lanes;
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(packed[(g * dim + d) * lanes + k], 0.0f);
    }
  }
}

TEST(KernelsTest, ScoreBlockPackedMatchesScalarReferenceAcrossShapes) {
  Rng rng(10);
  const std::size_t user_counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  // Items straddle the 8-lane group width of the packed kernel.
  const std::size_t item_counts[] = {0, 1, 2, 7, 8, 9, 16, 17, 31};
  const std::size_t dims[] = {1, 3, 8, 9, 32, 33};
  for (std::size_t nu : user_counts) {
    for (std::size_t ni : item_counts) {
      for (std::size_t dim : dims) {
        const std::vector<float> users = RandomVector(nu * dim, rng);
        const std::vector<float> items = RandomVector(ni * dim, rng);
        std::vector<float> packed(kernels::PackedItemsSize(ni, dim));
        kernels::PackItems(items.data(), ni, dim, packed.data());
        std::vector<float> expected(nu * ni, -1.0f);
        std::vector<float> actual(nu * ni, -1.0f);
        kernels::ScalarScoreBlock(users.data(), nu, items.data(), ni, dim,
                                  expected.data(), ni);
        kernels::ScoreBlockPacked(users.data(), nu, packed.data(), ni, dim,
                                  actual.data(), ni);
        for (std::size_t i = 0; i < nu * ni; ++i) {
          EXPECT_NEAR(actual[i], expected[i], Tolerance(dim))
              << "nu=" << nu << " ni=" << ni << " dim=" << dim << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsTest, ScoreBlockPackedDoesNotWritePastValidItems) {
  Rng rng(11);
  const std::size_t nu = 5, ni = 13, dim = 8, stride = 16;
  const std::vector<float> users = RandomVector(nu * dim, rng);
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> packed(kernels::PackedItemsSize(ni, dim));
  kernels::PackItems(items.data(), ni, dim, packed.data());
  std::vector<float> out(nu * stride, -123.0f);
  kernels::ScoreBlockPacked(users.data(), nu, packed.data(), ni, dim,
                            out.data(), stride);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t j = ni; j < stride; ++j) {
      EXPECT_EQ(out[u * stride + j], -123.0f) << "u=" << u << " j=" << j;
    }
  }
}

TEST(KernelsTest, ScoreBlockRespectsOutputStride) {
  Rng rng(7);
  const std::size_t nu = 5, ni = 3, dim = 32, stride = 10;
  const std::vector<float> users = RandomVector(nu * dim, rng);
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> out(nu * stride, -123.0f);
  kernels::ScoreBlock(users.data(), nu, items.data(), ni, dim, out.data(),
                      stride);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t j = 0; j < stride; ++j) {
      if (j < ni) {
        const float expected = kernels::ScalarDot(
            users.data() + u * dim, items.data() + j * dim, dim);
        EXPECT_NEAR(out[u * stride + j], expected, Tolerance(dim));
      } else {
        // Padding between rows is never written.
        EXPECT_EQ(out[u * stride + j], -123.0f);
      }
    }
  }
}

TEST(KernelsTest, ScoreBlockAgreesWithDotKernel) {
  // The evaluator assumes a block row equals per-item kernels::Dot output
  // (remainder users/items take exactly that path; tiles must agree too).
  Rng rng(8);
  const std::size_t nu = 9, ni = 13, dim = 32;
  const std::vector<float> users = RandomVector(nu * dim, rng);
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> out(nu * ni);
  kernels::ScoreBlock(users.data(), nu, items.data(), ni, dim, out.data(), ni);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t j = 0; j < ni; ++j) {
      const float via_dot =
          kernels::Dot(users.data() + u * dim, items.data() + j * dim, dim);
      // Tiled and single-row paths may reduce lanes in different orders, so
      // agreement is within rounding, not bitwise.
      EXPECT_NEAR(out[u * ni + j], via_dot, Tolerance(dim))
          << "u=" << u << " j=" << j;
    }
  }
}

TEST(KernelsTest, SortColumnsSortsEveryColumnLikeStdSort) {
  // Every contributor count up to 130 (all network shapes through two
  // power-of-two boundaries) at widths that exercise the vector body, the
  // scalar tail and both. Values are quantised so columns are full of ties.
  Rng rng(9);
  for (std::size_t n = 0; n <= 130; ++n) {
    for (const std::size_t dim : {1u, 3u, 8u, 9u, 32u, 33u}) {
      std::vector<float> tile(n * dim);
      for (float& v : tile) {
        v = 0.5f * static_cast<float>(rng.NextInt(-6, 6)) + 0.25f;
      }
      std::vector<float> expected = tile;
      kernels::SortColumns(tile.data(), n, dim);
      std::vector<float> column(n);
      for (std::size_t d = 0; d < dim; ++d) {
        for (std::size_t i = 0; i < n; ++i) column[i] = expected[i * dim + d];
        std::sort(column.begin(), column.end());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(tile[i * dim + d], column[i])
              << "n=" << n << " dim=" << dim << " d=" << d << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fedrec
