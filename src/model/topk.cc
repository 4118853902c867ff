#include "model/topk.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace fedrec {

namespace {

/// Places `idx` into best[0, size], which holds `size` entries in
/// (score desc, index asc) order and one free slot at the end. Every held
/// index is smaller than `idx`, so an equal score stays ahead of it.
inline void InsertBestFirst(const float* scores, std::uint32_t* best,
                            std::size_t size, std::uint32_t idx) {
  const float score = scores[idx];
  std::size_t pos = size;
  while (pos > 0 && scores[best[pos - 1]] < score) {
    best[pos] = best[pos - 1];
    --pos;
  }
  best[pos] = idx;
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
  out.resize(keep);  // fedrec:alloc-ok — grows only past the retained capacity
  if (keep == 0) return;
  const float* score = scores.data();
  std::uint32_t* best = out.data();

  // The scan is ascending, so the exclusion cursor only ever moves forward.
  const std::uint32_t* excl = sorted_excluded.data();
  const std::uint32_t* const excl_end = excl + sorted_excluded.size();
  auto excluded = [&excl, excl_end](std::uint32_t idx) {
    while (excl != excl_end && *excl < idx) ++excl;
    return excl != excl_end && *excl == idx;
  };

  // Fill: the first `keep` candidates, kept best-first.
  std::size_t filled = 0;
  std::uint32_t idx = 0;
  for (; filled < keep && idx < n; ++idx) {
    if (excluded(idx)) continue;
    InsertBestFirst(score, best, filled++, idx);
  }
  if (filled < keep) {
    out.resize(filled);  // fedrec:alloc-ok — shrinks, never allocates
    return;
  }

  // Screen: only a score strictly above the current K-th can enter.
  float kth = score[best[keep - 1]];
  for (; idx < n; ++idx) {
    if (!(score[idx] > kth) || excluded(idx)) continue;
    InsertBestFirst(score, best, keep - 1, idx);
    kth = score[best[keep - 1]];
  }
}

std::vector<std::uint32_t> TopKIndicesExcludingSorted(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded) {
  std::vector<std::uint32_t> out;
  TopKIndicesExcludingSortedInto(scores, k, sorted_excluded, out);
  return out;
}

}  // namespace fedrec
