#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/stamp_set.h"

namespace fedrec {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_differ = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleRoughlyUniform) {
  Rng rng(99);
  const int buckets = 10, n = 100000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<int>(rng.NextDouble() * buckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / buckets, 4 * std::sqrt(n / buckets));
  }
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedZeroAborts) {
  Rng rng(5);
  EXPECT_DEATH(rng.NextBounded(0), "");
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(4);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParameters) {
  Rng rng(12);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, LogNormalMeanMatches) {
  Rng rng(13);
  // E[LogNormal(mu, sigma)] = exp(mu + sigma^2/2); choose mu so mean = 30.
  const double sigma = 0.5;
  const double mu = std::log(30.0) - 0.5 * sigma * sigma;
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextLogNormal(mu, sigma);
  EXPECT_NEAR(sum / n, 30.0, 0.5);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(21);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng parent(42);
  Rng child0 = parent.Fork(0);
  Rng child1 = parent.Fork(1);
  bool differ = false;
  for (int i = 0; i < 50; ++i) {
    if (child0.Next() != child1.Next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(SampleWithoutReplacementTest, ExactCountAndDistinct) {
  Rng rng(31);
  for (std::size_t count : {0u, 1u, 5u, 50u, 100u}) {
    const auto sample = rng.SampleWithoutReplacement(100, count);
    EXPECT_EQ(sample.size(), count);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
    for (std::size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(SampleWithoutReplacementTest, FullPopulationIsPermutation) {
  Rng rng(32);
  auto sample = rng.SampleWithoutReplacement(20, 20);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(sample[i], i);
}

TEST(SampleWithoutReplacementTest, OverdrawAborts) {
  Rng rng(33);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 4), "");
}

/// Floyd's algorithm as SampleWithoutReplacement ran it with a hash set for
/// the chosen values.
std::vector<std::size_t> HashSetFloyd(Rng& rng, std::size_t population,
                                      std::size_t count) {
  std::unordered_set<std::size_t> chosen;
  std::vector<std::size_t> result;
  for (std::size_t j = population - count; j < population; ++j) {
    const std::size_t t = static_cast<std::size_t>(rng.NextBounded(j + 1));
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

TEST(SampleWithoutReplacementTest, IntoMatchesHashSetFloydDrawForDraw) {
  // One `out` buffer and one thread's stamps serve every pair, so stale
  // stamps from a larger or smaller earlier population would show.
  Rng pairs(34);
  std::vector<std::size_t> out;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t population =
        1 + static_cast<std::size_t>(pairs.NextBounded(trial % 2 ? 40 : 3000));
    std::size_t count =
        static_cast<std::size_t>(pairs.NextBounded(population + 1));
    if (trial % 5 == 0) count = 0;
    if (trial % 5 == 1) count = population;
    const std::uint64_t seed = pairs.Next();
    Rng oracle_rng(seed), into_rng(seed), returning_rng(seed);
    const std::vector<std::size_t> want =
        HashSetFloyd(oracle_rng, population, count);
    into_rng.SampleWithoutReplacementInto(population, count, out);
    EXPECT_EQ(out, want) << "population=" << population << " count=" << count;
    EXPECT_EQ(returning_rng.SampleWithoutReplacement(population, count), want);
    // Same number of draws consumed.
    const std::uint64_t next = oracle_rng.Next();
    EXPECT_EQ(into_rng.Next(), next);
    EXPECT_EQ(returning_rng.Next(), next);
  }
}

TEST(StampSetTest, WrapLeavesNoStaleMark) {
  // Three marks short of the wrap, every slot already carries one of the
  // marks the counter hands out right after it (left from its previous
  // cycle). Each new mark must find no slot carrying it, and marks must not
  // repeat.
  StampSet set(std::numeric_limits<std::uint32_t>::max() - 3);
  set.Grow(16);
  for (std::size_t v = 0; v < 16; ++v) {
    set.Set(v, static_cast<std::uint32_t>(1 + v % 5));
  }
  std::set<std::uint32_t> issued;
  for (int round = 0; round < 8; ++round) {
    const std::uint32_t mark = set.NewMark();
    EXPECT_NE(mark, 0u) << "mark 0 is what fresh slots carry";
    EXPECT_TRUE(issued.insert(mark).second) << "mark " << mark << " reissued";
    for (std::size_t v = 0; v < 16; ++v) {
      EXPECT_FALSE(set.Has(v, mark)) << "stale mark on slot " << v;
    }
    set.Set(static_cast<std::size_t>(round), mark);  // slots 8.. keep 1..5
  }
  // The grown tail starts unmarked under the live mark too.
  const std::uint32_t mark = set.NewMark();
  set.Grow(40);
  for (std::size_t v = 0; v < 40; ++v) EXPECT_FALSE(set.Has(v, mark));
}

TEST(WeightedSampleTest, RespectsZeroWeights) {
  Rng rng(41);
  const std::vector<double> weights{0.0, 1.0, 0.0, 2.0, 0.0, 3.0};
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = rng.WeightedSampleWithoutReplacement(weights, 3);
    EXPECT_EQ(sample.size(), 3u);
    for (std::size_t idx : sample) {
      EXPECT_GT(weights[idx], 0.0);
    }
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(WeightedSampleTest, HigherWeightSampledMoreOften) {
  Rng rng(42);
  const std::vector<double> weights{1.0, 10.0};
  int heavy_first = 0;
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    const auto sample = rng.WeightedSampleWithoutReplacement(weights, 1);
    if (sample[0] == 1) ++heavy_first;
  }
  // P(pick heavy) = 10/11 ~ 0.909.
  EXPECT_NEAR(static_cast<double>(heavy_first) / trials, 10.0 / 11.0, 0.03);
}

TEST(WeightedSampleTest, TooFewPositiveWeightsAborts) {
  Rng rng(43);
  const std::vector<double> weights{0.0, 1.0};
  EXPECT_DEATH(rng.WeightedSampleWithoutReplacement(weights, 2), "");
}

TEST(WeightedSampleTest, NegativeWeightAborts) {
  Rng rng(44);
  const std::vector<double> weights{1.0, -0.5};
  EXPECT_DEATH(rng.WeightedSampleWithoutReplacement(weights, 1), "");
}

TEST(WeightedIndexTest, Frequencies) {
  Rng rng(51);
  const std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    if (rng.WeightedIndex(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.75, 0.02);
}

TEST(WeightedIndexTest, AllZeroAborts) {
  Rng rng(52);
  EXPECT_DEATH(rng.WeightedIndex({0.0, 0.0}), "");
}

TEST(ZipfDistributionTest, PmfSumsToOneAndDecreases) {
  ZipfDistribution zipf(100, 1.0);
  double total = 0.0;
  double prev = 1.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const double p = zipf.pmf(i);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfDistributionTest, HeadHeavierThanTail) {
  ZipfDistribution zipf(1000, 1.0);
  Rng rng(61);
  std::size_t head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf(rng) < 100) ++head;  // top decile of ranks
  }
  // With s=1, P(rank < 100) ~ H(100)/H(1000) ~ 5.19/7.49 ~ 0.69.
  EXPECT_GT(static_cast<double>(head) / n, 0.6);
}

TEST(ZipfDistributionTest, SamplesInRange) {
  ZipfDistribution zipf(10, 1.2);
  Rng rng(62);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf(rng), 10u);
  }
}


TEST(RngTest, SnapshotRestoreReplaysTheStreamBitForBit) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) (void)rng.Next();
  (void)rng.NextGaussian();  // may leave a cached Marsaglia-polar spare
  const RngSnapshot snapshot = rng.Snapshot();
  std::vector<double> expected_gaussian;
  std::vector<std::uint64_t> expected_raw;
  for (int i = 0; i < 8; ++i) expected_gaussian.push_back(rng.NextGaussian());
  for (int i = 0; i < 8; ++i) expected_raw.push_back(rng.Next());

  Rng restored(999);  // different seed: Restore must fully reseat the state
  restored.Restore(snapshot);
  for (double value : expected_gaussian) {
    EXPECT_EQ(restored.NextGaussian(), value);
  }
  for (std::uint64_t value : expected_raw) {
    EXPECT_EQ(restored.Next(), value);
  }
}

TEST(RngTest, SnapshotCarriesTheCachedGaussianSpare) {
  // The polar method computes Gaussians in pairs and caches the second; the
  // spare IS stream state, so a snapshot taken mid-pair must carry it (a
  // restore that dropped it would shift every later draw by one).
  Rng rng(7);
  (void)rng.NextGaussian();
  const RngSnapshot snapshot = rng.Snapshot();
  Rng restored(8);
  restored.Restore(snapshot);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rng.NextGaussian(), restored.NextGaussian());
  }
  EXPECT_EQ(rng.Next(), restored.Next());
}

}  // namespace
}  // namespace fedrec
