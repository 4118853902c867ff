#include "model/topk.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedrec {
namespace {

/// Test oracle: the bounded-heap top-K the screened scan replaced. Keeps the
/// `k` best non-excluded indices under (score desc, index asc) in a heap
/// with the worst candidate at the front, then sorts it best-first.
std::vector<std::uint32_t> HeapTopK(
    std::span<const float> scores, std::size_t k,
    const std::function<bool(std::uint32_t)>& exclude) {
  auto better = [&scores](std::uint32_t a, std::uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::vector<std::uint32_t> heap;
  if (k == 0) return heap;
  for (std::uint32_t idx = 0; idx < scores.size(); ++idx) {
    if (exclude && exclude(idx)) continue;
    if (heap.size() < k) {
      heap.push_back(idx);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(idx, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = idx;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

std::vector<std::uint32_t> HeapTopKExcludingSorted(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded) {
  return HeapTopK(scores, k, [sorted_excluded](std::uint32_t idx) {
    return std::binary_search(sorted_excluded.begin(), sorted_excluded.end(),
                              idx);
  });
}

const std::vector<std::uint32_t> kNone;

TEST(TopKTest, BasicDescendingOrder) {
  const std::vector<float> scores{0.1f, 0.9f, 0.5f, 0.7f, 0.3f};
  const auto top = TopKIndicesExcludingSorted(scores, 3, kNone);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{1, 3, 2}));
}

TEST(TopKTest, KLargerThanInput) {
  const std::vector<float> scores{0.2f, 0.8f};
  const auto top = TopKIndicesExcludingSorted(scores, 10, kNone);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{1, 0}));
}

TEST(TopKTest, KZeroEmpty) {
  const std::vector<float> scores{0.2f, 0.8f};
  EXPECT_TRUE(TopKIndicesExcludingSorted(scores, 0, kNone).empty());
}

TEST(TopKTest, EmptyScores) {
  const std::vector<float> scores;
  EXPECT_TRUE(TopKIndicesExcludingSorted(scores, 3, kNone).empty());
}

TEST(TopKTest, TiesBreakTowardSmallerIndex) {
  const std::vector<float> scores{0.5f, 0.5f, 0.5f, 0.5f};
  const auto top = TopKIndicesExcludingSorted(scores, 2, kNone);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKTest, SignedZerosTie) {
  const std::vector<float> scores{-0.0f, 0.0f, -1.0f, -0.0f};
  const auto top = TopKIndicesExcludingSorted(scores, 3, kNone);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(TopKTest, ExcludeEveryOtherIndex) {
  const std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.6f};
  const std::vector<std::uint32_t> even{0, 2};
  const auto top = TopKIndicesExcludingSorted(scores, 2, even);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{1, 3}));
}

TEST(TopKTest, ExcludeAllYieldsEmpty) {
  const std::vector<float> scores{1.0f, 2.0f};
  const std::vector<std::uint32_t> all{0, 1};
  EXPECT_TRUE(TopKIndicesExcludingSorted(scores, 2, all).empty());
}

TEST(TopKTest, MatchesFullSortOnRandomData) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> scores(200);
    for (auto& s : scores) s = rng.NextFloat();
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextBounded(50));

    std::vector<std::uint32_t> all(scores.size());
    std::iota(all.begin(), all.end(), 0);
    std::sort(all.begin(), all.end(), [&](std::uint32_t a, std::uint32_t b) {
      return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
    });
    all.resize(k);

    EXPECT_EQ(TopKIndicesExcludingSorted(scores, k, kNone), all)
        << "trial " << trial;
  }
}

TEST(TopKTest, ExcludesListedIndices) {
  const std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.6f, 0.5f};
  const std::vector<std::uint32_t> excluded{0, 2};
  const auto top = TopKIndicesExcludingSorted(scores, 3, excluded);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{1, 3, 4}));
}

TEST(TopKTest, ExclusionsPastTheEndAndDuplicatesIgnored) {
  const std::vector<float> scores{0.9f, 0.8f, 0.7f};
  const std::vector<std::uint32_t> excluded{1, 1, 3, 7, 7};
  const auto top = TopKIndicesExcludingSorted(scores, 5, excluded);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{0, 2}));
}

TEST(TopKTest, IntoOverwritesAReusedBuffer) {
  const std::vector<float> scores{0.1f, 0.9f, 0.5f};
  std::vector<std::uint32_t> out{7, 7, 7, 7, 7, 7};
  TopKIndicesExcludingSortedInto(scores, 2, kNone, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2}));
  TopKIndicesExcludingSortedInto(scores, 0, kNone, out);
  EXPECT_TRUE(out.empty());
  TopKIndicesExcludingSortedInto(scores, 9, kNone, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2, 0}));
}

#ifndef NDEBUG
TEST(TopKDeathTest, NonFiniteScoreAborts) {
  const std::vector<float> scores{0.5f,
                                  std::numeric_limits<float>::quiet_NaN()};
  EXPECT_DEATH(TopKIndicesExcludingSorted(scores, 1, kNone), "");
}
#endif

/// Scores drawn from a handful of quantized levels, so most trials hold
/// ties; zeros come out as +0.0 or -0.0 at random.
std::vector<float> QuantizedScores(Rng& rng, std::size_t n) {
  static constexpr std::uint64_t kLevels[] = {1, 2, 3, 5, 17, 1000};
  const std::uint64_t levels = kLevels[rng.NextBounded(std::size(kLevels))];
  std::vector<float> scores(n);
  for (float& s : scores) {
    const auto level = static_cast<std::int64_t>(rng.NextBounded(levels));
    const auto centre = static_cast<std::int64_t>(levels / 2);
    s = static_cast<float>(level - centre) * 0.25f;
    if (s == 0.0f && rng.NextBounded(2) == 0) s = -0.0f;
  }
  return scores;
}

/// An exclusion list built to hit the scan's edges: the fill prefix, the
/// item holding the K-th place, indices past the end, every item, and plain
/// random subsets (with duplicates).
std::vector<std::uint32_t> AdversarialExclusions(Rng& rng,
                                                 std::span<const float> scores,
                                                 std::size_t k) {
  const auto n = static_cast<std::uint32_t>(scores.size());
  std::vector<std::uint32_t> excluded;
  switch (rng.NextBounded(6)) {
    case 0:
      break;
    case 1: {  // a prefix of the fill window
      const std::uint64_t len =
          rng.NextBounded(std::min<std::size_t>(n, k) + 2);
      for (std::uint32_t i = 0; i < len && i < n; ++i) excluded.push_back(i);
      break;
    }
    case 2: {  // whatever holds the K-th place without exclusions
      const auto top = HeapTopK(scores, k, nullptr);
      if (!top.empty()) excluded.push_back(top.back());
      if (top.size() > 1 && rng.NextBounded(2) == 0) {
        excluded.push_back(top[0]);
      }
      break;
    }
    case 3:  // every item
      for (std::uint32_t i = 0; i < n; ++i) excluded.push_back(i);
      break;
    case 4:  // only indices past the end
      excluded = {n, n + 1, n + 9};
      break;
    default:  // random subset with duplicates and out-of-range entries
      for (std::uint32_t i = 0; i < n + 3; ++i) {
        const std::uint64_t roll = rng.NextBounded(4);
        if (roll == 0) excluded.push_back(i);
        if (roll == 1 && rng.NextBounded(4) == 0) {
          excluded.push_back(i);
          excluded.push_back(i);
        }
      }
      break;
  }
  std::sort(excluded.begin(), excluded.end());
  return excluded;
}

TEST(TopKCounterexampleSearch, ScreenedScanMatchesHeapOracle) {
  Rng rng(20260);
  std::vector<std::uint32_t> out;  // reused across trials on purpose
  std::size_t trials = 0;
  std::size_t tied_trials = 0;
  for (int round = 0; round < 2100; ++round) {
    const auto n = static_cast<std::size_t>(
        rng.NextBounded(5) == 0 ? 64 + rng.NextBounded(200)
                                : rng.NextBounded(20));
    const std::vector<float> scores = QuantizedScores(rng, n);
    std::vector<float> distinct = scores;
    std::sort(distinct.begin(), distinct.end());
    const bool tied =
        std::adjacent_find(distinct.begin(), distinct.end()) != distinct.end();
    if (tied) ++tied_trials;
    const std::size_t ks[] = {0, 1, n == 0 ? 0 : n - 1, n, n + 3};
    for (std::size_t k : ks) {
      const std::vector<std::uint32_t> excluded =
          AdversarialExclusions(rng, scores, k);
      TopKIndicesExcludingSortedInto(scores, k, excluded, out);
      ASSERT_EQ(out, HeapTopKExcludingSorted(scores, k, excluded))
          << "round " << round << " n=" << n << " k=" << k
          << " excluded=" << excluded.size();
      ++trials;
    }
  }
  EXPECT_GE(trials, 10000u);
  EXPECT_GT(tied_trials, 1000u);
}

/// Reference for the threshold selection: the non-excluded indices in
/// ascending order, stable-sorted by score descending (so ties keep the
/// smaller index first), cut to k.
std::vector<std::uint32_t> StableSortTopK(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded) {
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < scores.size(); ++i) {
    if (!std::binary_search(sorted_excluded.begin(), sorted_excluded.end(),
                            i)) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::uint32_t a, std::uint32_t b) {
                     return scores[a] > scores[b];
                   });
  if (order.size() > k) order.resize(k);
  return order;
}

TEST(TopKTest, ThresholdSelectionMatchesStableSortOracle) {
  // Catalogues up to 40 blocks of 16 items, most not a whole number of
  // blocks; tied or continuous scores; exclusions that remove each block's
  // maximum, the unexcluded top-K, every item, or a random subset.
  Rng rng(4242);
  std::vector<std::uint32_t> out;
  std::size_t cases = 0;
  std::size_t block_max_cases = 0;
  std::size_t all_excluded_cases = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = round % 10 == 0
                              ? 16 * rng.NextBounded(41)
                              : static_cast<std::size_t>(rng.NextBounded(641));
    std::vector<float> scores;
    if (round % 2 == 0) {
      scores = QuantizedScores(rng, n);
    } else {
      scores.resize(n);
      for (float& s : scores) s = static_cast<float>(rng.NextGaussian(0, 1));
    }
    const std::size_t ks[] = {1, 1 + rng.NextBounded(50), n, n + 5};
    for (std::size_t k : ks) {
      std::vector<std::uint32_t> excluded;
      switch (rng.NextBounded(5)) {
        case 0:
          break;
        case 1:  // the first maximum of most blocks
          for (std::size_t b = 0; b * 16 < n; ++b) {
            if (rng.NextBounded(4) == 0) continue;
            const auto first = scores.begin() + static_cast<std::ptrdiff_t>(b * 16);
            const auto last = scores.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(n, b * 16 + 16));
            excluded.push_back(static_cast<std::uint32_t>(
                std::max_element(first, last) - scores.begin()));
          }
          ++block_max_cases;
          break;
        case 2:  // the top-K itself
          excluded = StableSortTopK(scores, k, {});
          std::sort(excluded.begin(), excluded.end());
          break;
        case 3:  // every item, plus one past the end
          for (std::uint32_t i = 0; i <= n; ++i) excluded.push_back(i);
          ++all_excluded_cases;
          break;
        default:  // a random fifth, with duplicates
          for (std::uint32_t i = 0; i < n; ++i) {
            if (rng.NextBounded(5) == 0) excluded.push_back(i);
            if (rng.NextBounded(40) == 0) excluded.push_back(i);
          }
          break;
      }
      TopKIndicesExcludingSortedInto(scores, k, excluded, out);
      ASSERT_EQ(out, StableSortTopK(scores, k, excluded))
          << "round " << round << " n=" << n << " k=" << k
          << " excluded=" << excluded.size();
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000u);
  EXPECT_GT(block_max_cases, 100u);
  EXPECT_GT(all_excluded_cases, 100u);
}

}  // namespace
}  // namespace fedrec
