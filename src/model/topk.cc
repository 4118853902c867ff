#include "model/topk.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/kernels.h"

namespace fedrec {

namespace {

constexpr std::size_t kBlock = kernels::kMaxBlock;
constexpr float kNoItem = -std::numeric_limits<float>::infinity();

/// Places `value` into top[0, size), which is in descending order, dropping
/// the smallest entry. `value` must beat top[size - 1].
inline void InsertDescending(float* top, std::size_t size, float value) {
  std::size_t pos = size - 1;
  while (pos > 0 && top[pos - 1] < value) {
    top[pos] = top[pos - 1];
    --pos;
  }
  top[pos] = value;
}

}  // namespace

// fedrec:hot
void TopKIndicesExcludingSortedInto(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded,
    std::vector<std::uint32_t>& out) {
  FEDREC_DCHECK(std::is_sorted(sorted_excluded.begin(), sorted_excluded.end()));
  FEDREC_DCHECK(std::all_of(scores.begin(), scores.end(),
                            [](float s) { return std::isfinite(s); }));
  const std::size_t n = scores.size();
  const std::size_t keep = std::min(k, n);
  if (keep == 0) {
    out.clear();
    return;
  }
  const float* score = scores.data();
  const std::size_t num_blocks = (n + kBlock - 1) / kBlock;
  const std::uint32_t* const excl_begin = sorted_excluded.data();
  const std::uint32_t* const excl_end = excl_begin + sorted_excluded.size();

  // Per-thread scratch, kept at its high-water size.
  static thread_local std::vector<float> block_max;
  static thread_local std::vector<float> top;
  static thread_local std::vector<std::uint32_t> candidates;
  block_max.resize(num_blocks);  // fedrec:alloc-ok — high-water growth

  // Block maxima, excluded items included: the SIMD pass over every score.
  kernels::BlockMaxima(score, n, block_max.data());

  // Threshold: the keep-th largest of the blocks' maxima over their items
  // that are not excluded. Those keep blocks each hold a distinct candidate
  // scoring at least that much, so no item below it can make the list. A
  // raw maximum bounds its block's from above, so a block whose raw maximum
  // cannot enter the running top is passed over, and only a block that can
  // and holds an excluded item is rescanned without it. With no more blocks
  // than keep, or too few with an item left, the threshold stays kNoItem
  // and every item is a candidate.
  float threshold = kNoItem;
  if (keep < num_blocks) {
    top.assign(keep, kNoItem);  // fedrec:alloc-ok — high-water growth
    float* best = top.data();
    const std::uint32_t* e = excl_begin;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      float m = block_max[b];
      if (!(m > best[keep - 1])) continue;
      const std::size_t first = b * kBlock;
      const std::size_t last = std::min(n, first + kBlock);
      while (e != excl_end && *e < first) ++e;
      if (e != excl_end && *e < last) {
        m = kNoItem;
        for (std::size_t i = first; i < last; ++i) {
          while (e != excl_end && *e < i) ++e;
          if (e != excl_end && *e == i) continue;
          if (m < score[i]) m = score[i];
        }
        if (!(m > best[keep - 1])) continue;
      }
      InsertDescending(best, keep, m);
    }
    threshold = best[keep - 1];
  }

  // Candidates: every item at or above the threshold, in ascending order,
  // from the blocks whose raw maximum reaches it; then drop the excluded
  // ones.
  candidates.resize(n);  // fedrec:alloc-ok — high-water growth
  std::uint32_t* cand = candidates.data();
  std::size_t found = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    if (block_max[b] < threshold) continue;
    const std::size_t block_end = std::min(n, (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < block_end; ++i) {
      cand[found] = static_cast<std::uint32_t>(i);
      found += score[i] >= threshold ? 1 : 0;
    }
  }
  std::size_t kept = 0;
  const std::uint32_t* e = excl_begin;
  for (std::size_t c = 0; c < found; ++c) {
    while (e != excl_end && *e < cand[c]) ++e;
    if (e != excl_end && *e == cand[c]) continue;
    cand[kept++] = cand[c];
  }

  // Order: (score desc, index asc) is a strict total order, so the first
  // keep candidates under it are one unique list.
  const std::size_t size = std::min(keep, kept);
  std::partial_sort(cand, cand + size, cand + kept,
                    [score](std::uint32_t a, std::uint32_t b) {
                      return score[a] > score[b] ||
                             (score[a] == score[b] && a < b);
                    });
  out.assign(cand, cand + size);  // fedrec:alloc-ok — grows only past the retained capacity
}

std::vector<std::uint32_t> TopKIndicesExcludingSorted(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded) {
  std::vector<std::uint32_t> out;
  TopKIndicesExcludingSortedInto(scores, k, sorted_excluded, out);
  return out;
}

}  // namespace fedrec
