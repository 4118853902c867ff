#ifndef FEDREC_COMMON_KERNELS_H_
#define FEDREC_COMMON_KERNELS_H_

#include <cstddef>

/// \file
/// Vectorized float kernels behind every hot loop: dot products, AXPY, scaling
/// and the blocked A·Bᵀ batch-scoring matmul used by the evaluator, the
/// attacker's poison-gradient pass, and local training.
///
/// Two implementations live behind one interface:
///   * an 8-lane SIMD path built on GCC/Clang vector extensions (compiles to
///     SSE/AVX/NEON according to the target flags, no intrinsics needed);
///   * a portable scalar path, unrolled into independent accumulator chains so
///     the FPU pipeline stays full even without SIMD.
/// Every entry point accepts arbitrary lengths (including 0); remainders are
/// handled with a scalar tail loop. The `Scalar*` reference implementations
/// accumulate strictly in ascending index order and are the ground truth for
/// the kernel-equivalence tests and the micro-benchmark baselines.

namespace fedrec {
namespace kernels {

/// True when this build's kernels use the SIMD path (GCC/Clang vector
/// extensions); false when only the portable scalar-unrolled fallback is
/// compiled in. Exposed so benches and tests can report which path ran.
bool HasVectorPath();

/// Hints the CPU to start loading the cache line(s) holding [p, p + bytes).
/// Used by gather-heavy loops (a federated round reads a scatter of item
/// rows from a matrix far larger than cache) to overlap the miss latency of
/// upcoming rows with current work. No-op where unsupported.
inline void PrefetchRead(const void* p, std::size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  const char* c = static_cast<const char*>(p);
  for (std::size_t offset = 0; offset < bytes; offset += 64) {
    __builtin_prefetch(c + offset, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

// -- Scalar reference implementations (ascending-order accumulation) --------

float ScalarDot(const float* a, const float* b, std::size_t n);
void ScalarAxpy(float alpha, const float* x, float* y, std::size_t n);
float ScalarL2NormSquared(const float* x, std::size_t n);

/// out[u * out_stride + j] = <users row u, items row j>, one scalar dot per
/// pair. Baseline for the blocked kernel below.
void ScalarScoreBlock(const float* users, std::size_t num_users,
                      const float* items, std::size_t num_items,
                      std::size_t dim, float* out, std::size_t out_stride);

// -- Vectorized kernels -----------------------------------------------------

/// Dot product over n floats.
float Dot(const float* a, const float* b, std::size_t n);

/// y += alpha * x over n floats. x and y must not alias.
void Axpy(float alpha, const float* x, float* y, std::size_t n);

/// x *= alpha over n floats.
void Scale(float alpha, float* x, std::size_t n);

/// Sets n floats to value.
void Fill(float* x, float value, std::size_t n);

/// Squared Euclidean norm over n floats.
float L2NormSquared(const float* x, std::size_t n);

/// Blocked batch scoring: out[u * out_stride + j] = <users row u, items row j>
/// for u in [0, num_users), j in [0, num_items). `users` is row-major
/// num_users x dim, `items` row-major num_items x dim, and out_stride must be
/// >= num_items. Register-tiled (4 users x 2 items on the SIMD path, 4 x 4
/// independent scalar chains on the fallback) so each loaded item row is
/// reused across the user tile and the FMA pipeline stays saturated.
void ScoreBlock(const float* users, std::size_t num_users, const float* items,
                std::size_t num_items, std::size_t dim, float* out,
                std::size_t out_stride);

/// Number of SIMD lanes per packed item group (see PackItems).
inline constexpr std::size_t kScoreLanes = 8;

/// Number of floats PackItems writes for a num_items x dim matrix.
inline constexpr std::size_t PackedItemsSize(std::size_t num_items,
                                             std::size_t dim) {
  return ((num_items + kScoreLanes - 1) / kScoreLanes) * dim * kScoreLanes;
}

/// Packs a row-major num_items x dim item matrix into micro-panels of
/// kScoreLanes items: group g stores dim consecutive lane rows,
/// out[(g * dim + d) * kScoreLanes + k] = items[(g * kScoreLanes + k) * dim + d]
/// with zero padding for the lanes of a final partial group. Done once per
/// scoring pass, it makes every subsequent ScoreBlockPacked inner loop a
/// contiguous stream of lane rows — no strided loads, no lane shuffles.
void PackItems(const float* items, std::size_t num_items, std::size_t dim,
               float* out);

/// ScoreBlock over a PackItems buffer. Each SIMD lane owns one item, so
/// scores accumulate coordinate-by-coordinate in ascending order — the same
/// operation sequence as ScalarDot per (user, item) pair. This is the fastest
/// scoring path; use it whenever one item matrix is scored against many user
/// blocks.
void ScoreBlockPacked(const float* users, std::size_t num_users,
                      const float* items_packed, std::size_t num_items,
                      std::size_t dim, float* out, std::size_t out_stride);

/// Sorts every column of a row-major n x dim tile ascending, in place: after
/// the call, tile[i * dim + d] is the i-th smallest of column d. The network
/// is Batcher's odd-even merge sort for the next power of two above n with
/// every comparator that touches a row >= n dropped, which is exactly the
/// network over a tile padded with +inf rows (a padded row is never smaller
/// than a real one, so its comparators never swap). Each comparator is an
/// elementwise min/max of two whole tile rows, vectorised across dim, and the
/// comparator sequence depends on n only, never on the values.
///
/// For NaN-free input the sorted columns hold exactly the values std::sort
/// would produce; only the placement of equal-valued -0.0 / +0.0 among each
/// other is unspecified (std::sort's is too). The vector and scalar paths
/// produce bit-identical tiles, zeros included.
void SortColumns(float* tile, std::size_t n, std::size_t dim);

}  // namespace kernels
}  // namespace fedrec

#endif  // FEDREC_COMMON_KERNELS_H_
