#ifndef FEDREC_MODEL_TOPK_H_
#define FEDREC_MODEL_TOPK_H_

#include <cstdint>
#include <span>
#include <vector>

/// \file
/// Top-K selection over item scores — the recommendation-list primitive behind
/// every metric (V^rec_i of Section III-C) and behind the attack's boundary
/// item (Eq. 13/15).

namespace fedrec {

/// Writes to `out` the indices of the `k` largest scores in descending score
/// order, skipping every index listed in `sorted_excluded`. Ties break toward
/// the smaller index, so the order is (score desc, index asc) and the result
/// is deterministic. Fewer than `k` entries come back when not enough
/// candidates exist. `out` is overwritten; its capacity is reused, so a caller
/// that keeps one buffer allocates only on its first call.
///
/// `sorted_excluded` must be ascending; duplicates and indices past the end of
/// `scores` are allowed and ignored. Every score must be finite (checked in
/// debug builds): NaN has no place in a strict weak order.
///
/// One ascending scan: after the first `k` candidates fill a best-first
/// array, an item enters only if its score is strictly above the current
/// K-th score. An equal score therefore loses to the earlier index, and the
/// exclusion list is consulted only for the few items that pass that screen.
void TopKIndicesExcludingSortedInto(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded,
    std::vector<std::uint32_t>& out);

/// Returning form of TopKIndicesExcludingSortedInto.
std::vector<std::uint32_t> TopKIndicesExcludingSorted(
    std::span<const float> scores, std::size_t k,
    std::span<const std::uint32_t> sorted_excluded);

}  // namespace fedrec

#endif  // FEDREC_MODEL_TOPK_H_
