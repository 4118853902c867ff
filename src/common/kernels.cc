#include "common/kernels.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/math.h"

namespace fedrec {
namespace kernels {

#if (defined(__GNUC__) || defined(__clang__)) && !defined(FEDREC_KERNELS_FORCE_SCALAR)
#define FEDREC_KERNELS_VECTOR 1
#else
#define FEDREC_KERNELS_VECTOR 0
#endif

bool HasVectorPath() { return FEDREC_KERNELS_VECTOR != 0; }

// Function multi-versioning: on x86-64 glibc targets, emit an x86-64-v3
// (AVX2 + FMA + BMI) clone of each hot kernel next to the portable baseline
// and let the dynamic linker pick at load time (ifunc). The binary stays
// runnable on any x86-64 machine; modern ones get 8-wide FMA codegen for the
// Vec8 arithmetic below. NB: a comma-separated feature list would create one
// clone per feature, not one clone with all features — arch= is the correct
// way to get a combined micro-architecture level.
// Sanitized builds skip multi-versioning: ASan/TSan runtime setup and ifunc
// resolution order do not compose reliably (TSan crashes before main), GCC
// miscompiles cloned functions over 256-bit vector types under
// -fsanitize=undefined at -O0 (arguments reach the selected clone corrupted
// — FEDREC_UBSAN_BUILD comes from CMake since GCC defines no UBSan macro),
// and perf is irrelevant there.
#if FEDREC_KERNELS_VECTOR && defined(__x86_64__) && defined(__gnu_linux__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(FEDREC_UBSAN_BUILD)
#define FEDREC_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define FEDREC_KERNEL_CLONES
#endif

#if FEDREC_KERNELS_VECTOR
namespace {

/// 8 x float SIMD lane group (256 bits). On targets without 256-bit registers
/// the compiler legalizes operations into narrower pairs. This file is built
/// with -Wno-psabi: the vector types never cross a translation-unit boundary,
/// so the ABI-change warning does not apply.
using Vec8 = float __attribute__((vector_size(32)));

/// Unaligned load/store (memcpy-based, compiles to plain vector moves).
inline Vec8 LoadU(const float* p) {
  Vec8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreU(float* p, Vec8 v) { std::memcpy(p, &v, sizeof(v)); }

inline Vec8 Broadcast(float x) { return Vec8{x, x, x, x, x, x, x, x}; }

/// Lane sum with a fixed pairwise reduction order, so a given input always
/// produces the same bits regardless of call site.
inline float HorizontalSum(Vec8 v) {
  return ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]));
}

}  // namespace
#endif  // FEDREC_KERNELS_VECTOR

float ScalarDot(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void ScalarAxpy(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

float ScalarL2NormSquared(const float* x, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

void ScalarScoreBlock(const float* users, std::size_t num_users,
                      const float* items, std::size_t num_items,
                      std::size_t dim, float* out, std::size_t out_stride) {
  FEDREC_DCHECK(out_stride >= num_items);
  for (std::size_t u = 0; u < num_users; ++u) {
    const float* user = users + u * dim;
    float* row_out = out + u * out_stride;
    for (std::size_t j = 0; j < num_items; ++j) {
      row_out[j] = ScalarDot(user, items + j * dim, dim);
    }
  }
}

namespace {

/// Dot's body, shared with BprUserStep so the two run the same expressions.
inline __attribute__((always_inline)) float DotInline(const float* a,
                                                      const float* b,
                                                      std::size_t n) {
  if (n >= 8) {
#if FEDREC_KERNELS_VECTOR
    Vec8 acc0 = Broadcast(0.0f);
    Vec8 acc1 = Broadcast(0.0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      acc0 += LoadU(a + i) * LoadU(b + i);
      acc1 += LoadU(a + i + 8) * LoadU(b + i + 8);
    }
    if (i + 8 <= n) {
      acc0 += LoadU(a + i) * LoadU(b + i);
      i += 8;
    }
    float acc = HorizontalSum(acc0 + acc1);
    for (; i < n; ++i) acc += a[i] * b[i];
    return acc;
#else
    // Four independent chains keep the FPU busy even without SIMD.
    float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      acc0 += a[i] * b[i];
      acc1 += a[i + 1] * b[i + 1];
      acc2 += a[i + 2] * b[i + 2];
      acc3 += a[i + 3] * b[i + 3];
    }
    float acc = (acc0 + acc1) + (acc2 + acc3);
    for (; i < n; ++i) acc += a[i] * b[i];
    return acc;
#endif
  }
  // Short vectors accumulate in ascending order like ScalarDot (modulo FP
  // contraction), so callers with tiny dimensions (detector features) get the
  // identical operation sequence for every row.
  return ScalarDot(a, b, n);
}

}  // namespace

FEDREC_KERNEL_CLONES
float Dot(const float* a, const float* b, std::size_t n) {
  return DotInline(a, b, n);
}

FEDREC_KERNEL_CLONES
void Axpy(float alpha, const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
#if FEDREC_KERNELS_VECTOR
  for (; i + 8 <= n; i += 8) {
    StoreU(y + i, LoadU(y + i) + alpha * LoadU(x + i));
  }
#endif
  for (; i < n; ++i) y[i] += alpha * x[i];
}

FEDREC_KERNEL_CLONES
void BprUserStep(float* user, const float* pos, const float* neg,
                 std::size_t n, float lr) {
  // The original four calls, in order: two dots of the untouched row, then
  // two AXPYs. An element's two updates are independent of every other
  // element, so one pass that applies both in Axpy's expression form is
  // the two passes, bit for bit.
  const double x = static_cast<double>(DotInline(user, pos, n)) -
                   static_cast<double>(DotInline(user, neg, n));
  const float c = static_cast<float>(-Sigmoid(-x));
  const float pos_alpha = -lr * c;
  const float neg_alpha = lr * c;
  std::size_t i = 0;
#if FEDREC_KERNELS_VECTOR
  for (; i + 8 <= n; i += 8) {
    Vec8 y = LoadU(user + i) + pos_alpha * LoadU(pos + i);
    y = y + neg_alpha * LoadU(neg + i);
    StoreU(user + i, y);
  }
#endif
  for (; i < n; ++i) {
    user[i] += pos_alpha * pos[i];
    user[i] += neg_alpha * neg[i];
  }
}

FEDREC_KERNEL_CLONES
void Scale(float alpha, float* x, std::size_t n) {
  std::size_t i = 0;
#if FEDREC_KERNELS_VECTOR
  for (; i + 8 <= n; i += 8) StoreU(x + i, alpha * LoadU(x + i));
#endif
  for (; i < n; ++i) x[i] *= alpha;
}

void Fill(float* x, float value, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = value;
}

float L2NormSquared(const float* x, std::size_t n) { return Dot(x, x, n); }

namespace {

#if FEDREC_KERNELS_VECTOR

/// SIMD tile: 4 users x 2 items, 8 independent Vec8 accumulator chains. Each
/// loaded item lane group is reused by all four users and vice versa, so the
/// kernel is compute-bound instead of load-bound.
inline __attribute__((always_inline)) void ScoreTile4x2(const float* u0, const float* u1, const float* u2,
                  const float* u3, const float* v0, const float* v1,
                  std::size_t dim, float* o0, float* o1, float* o2, float* o3) {
  Vec8 a00 = Broadcast(0.0f), a01 = Broadcast(0.0f);
  Vec8 a10 = Broadcast(0.0f), a11 = Broadcast(0.0f);
  Vec8 a20 = Broadcast(0.0f), a21 = Broadcast(0.0f);
  Vec8 a30 = Broadcast(0.0f), a31 = Broadcast(0.0f);
  std::size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const Vec8 w0 = LoadU(v0 + d);
    const Vec8 w1 = LoadU(v1 + d);
    const Vec8 x0 = LoadU(u0 + d);
    const Vec8 x1 = LoadU(u1 + d);
    const Vec8 x2 = LoadU(u2 + d);
    const Vec8 x3 = LoadU(u3 + d);
    a00 += x0 * w0;
    a01 += x0 * w1;
    a10 += x1 * w0;
    a11 += x1 * w1;
    a20 += x2 * w0;
    a21 += x2 * w1;
    a30 += x3 * w0;
    a31 += x3 * w1;
  }
  float s00 = HorizontalSum(a00), s01 = HorizontalSum(a01);
  float s10 = HorizontalSum(a10), s11 = HorizontalSum(a11);
  float s20 = HorizontalSum(a20), s21 = HorizontalSum(a21);
  float s30 = HorizontalSum(a30), s31 = HorizontalSum(a31);
  for (; d < dim; ++d) {
    const float w0 = v0[d], w1 = v1[d];
    s00 += u0[d] * w0;
    s01 += u0[d] * w1;
    s10 += u1[d] * w0;
    s11 += u1[d] * w1;
    s20 += u2[d] * w0;
    s21 += u2[d] * w1;
    s30 += u3[d] * w0;
    s31 += u3[d] * w1;
  }
  o0[0] = s00;
  o0[1] = s01;
  o1[0] = s10;
  o1[1] = s11;
  o2[0] = s20;
  o2[1] = s21;
  o3[0] = s30;
  o3[1] = s31;
}

#else  // !FEDREC_KERNELS_VECTOR

/// Portable tile: 4 users x 2 items, 8 independent scalar chains.
inline __attribute__((always_inline)) void ScoreTile4x2(const float* u0, const float* u1, const float* u2,
                  const float* u3, const float* v0, const float* v1,
                  std::size_t dim, float* o0, float* o1, float* o2, float* o3) {
  float s00 = 0.0f, s01 = 0.0f, s10 = 0.0f, s11 = 0.0f;
  float s20 = 0.0f, s21 = 0.0f, s30 = 0.0f, s31 = 0.0f;
  for (std::size_t d = 0; d < dim; ++d) {
    const float w0 = v0[d], w1 = v1[d];
    s00 += u0[d] * w0;
    s01 += u0[d] * w1;
    s10 += u1[d] * w0;
    s11 += u1[d] * w1;
    s20 += u2[d] * w0;
    s21 += u2[d] * w1;
    s30 += u3[d] * w0;
    s31 += u3[d] * w1;
  }
  o0[0] = s00;
  o0[1] = s01;
  o1[0] = s10;
  o1[1] = s11;
  o2[0] = s20;
  o2[1] = s21;
  o3[0] = s30;
  o3[1] = s31;
}

#endif  // FEDREC_KERNELS_VECTOR

}  // namespace

FEDREC_KERNEL_CLONES
void ScoreBlock(const float* users, std::size_t num_users, const float* items,
                std::size_t num_items, std::size_t dim, float* out,
                std::size_t out_stride) {
  FEDREC_DCHECK(out_stride >= num_items);
  std::size_t u = 0;
  for (; u + 4 <= num_users; u += 4) {
    const float* u0 = users + (u + 0) * dim;
    const float* u1 = users + (u + 1) * dim;
    const float* u2 = users + (u + 2) * dim;
    const float* u3 = users + (u + 3) * dim;
    float* o0 = out + (u + 0) * out_stride;
    float* o1 = out + (u + 1) * out_stride;
    float* o2 = out + (u + 2) * out_stride;
    float* o3 = out + (u + 3) * out_stride;
    std::size_t j = 0;
    for (; j + 2 <= num_items; j += 2) {
      const float* v0 = items + j * dim;
      ScoreTile4x2(u0, u1, u2, u3, v0, v0 + dim, dim, o0 + j, o1 + j, o2 + j,
                   o3 + j);
    }
    for (; j < num_items; ++j) {
      const float* v = items + j * dim;
      o0[j] = Dot(u0, v, dim);
      o1[j] = Dot(u1, v, dim);
      o2[j] = Dot(u2, v, dim);
      o3[j] = Dot(u3, v, dim);
    }
  }
  for (; u < num_users; ++u) {
    const float* user = users + u * dim;
    float* row_out = out + u * out_stride;
    for (std::size_t j = 0; j < num_items; ++j) {
      row_out[j] = Dot(user, items + j * dim, dim);
    }
  }
}

void PackItems(const float* items, std::size_t num_items, std::size_t dim,
               float* out) {
  const std::size_t groups = (num_items + kScoreLanes - 1) / kScoreLanes;
  for (std::size_t g = 0; g < groups; ++g) {
    float* panel = out + g * dim * kScoreLanes;
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t k = 0; k < kScoreLanes; ++k) {
        const std::size_t j = g * kScoreLanes + k;
        panel[d * kScoreLanes + k] = j < num_items ? items[j * dim + d] : 0.0f;
      }
    }
  }
}

namespace {

/// Writes the `valid` leading lanes of a group's scores to out[j0..].
inline void StoreLanes(float* out, std::size_t j0, const float* lanes,
                       std::size_t valid) {
  for (std::size_t k = 0; k < valid; ++k) out[j0 + k] = lanes[k];
}

}  // namespace

FEDREC_KERNEL_CLONES
void ScoreBlockPacked(const float* users, std::size_t num_users,
                      const float* items_packed, std::size_t num_items,
                      std::size_t dim, float* out, std::size_t out_stride) {
  FEDREC_DCHECK(out_stride >= num_items);
  // Lane-per-item micro-panels: each group's panel is dim consecutive lane
  // rows (dim * kScoreLanes floats, contiguous), so the d-loop below is a
  // pure streaming read with one SIMD FMA per user per step. Accumulation
  // over d is in ascending order, matching ScalarDot's operation sequence
  // lane for lane.
  const std::size_t groups = (num_items + kScoreLanes - 1) / kScoreLanes;
  std::size_t u = 0;
  for (; u + 4 <= num_users; u += 4) {
    const float* u0 = users + (u + 0) * dim;
    const float* u1 = users + (u + 1) * dim;
    const float* u2 = users + (u + 2) * dim;
    const float* u3 = users + (u + 3) * dim;
    float* o0 = out + (u + 0) * out_stride;
    float* o1 = out + (u + 1) * out_stride;
    float* o2 = out + (u + 2) * out_stride;
    float* o3 = out + (u + 3) * out_stride;
    for (std::size_t g = 0; g < groups; ++g) {
      const float* panel = items_packed + g * dim * kScoreLanes;
      const std::size_t j0 = g * kScoreLanes;
      const std::size_t valid = std::min(kScoreLanes, num_items - j0);
#if FEDREC_KERNELS_VECTOR
      Vec8 acc0 = Broadcast(0.0f);
      Vec8 acc1 = Broadcast(0.0f);
      Vec8 acc2 = Broadcast(0.0f);
      Vec8 acc3 = Broadcast(0.0f);
      for (std::size_t d = 0; d < dim; ++d) {
        const Vec8 w = LoadU(panel + d * kScoreLanes);
        acc0 += u0[d] * w;
        acc1 += u1[d] * w;
        acc2 += u2[d] * w;
        acc3 += u3[d] * w;
      }
      if (valid == kScoreLanes) {
        StoreU(o0 + j0, acc0);
        StoreU(o1 + j0, acc1);
        StoreU(o2 + j0, acc2);
        StoreU(o3 + j0, acc3);
      } else {
        float lanes[kScoreLanes];
        StoreU(lanes, acc0);
        StoreLanes(o0, j0, lanes, valid);
        StoreU(lanes, acc1);
        StoreLanes(o1, j0, lanes, valid);
        StoreU(lanes, acc2);
        StoreLanes(o2, j0, lanes, valid);
        StoreU(lanes, acc3);
        StoreLanes(o3, j0, lanes, valid);
      }
#else
      float acc0[kScoreLanes] = {0.0f};
      float acc1[kScoreLanes] = {0.0f};
      float acc2[kScoreLanes] = {0.0f};
      float acc3[kScoreLanes] = {0.0f};
      for (std::size_t d = 0; d < dim; ++d) {
        const float* w = panel + d * kScoreLanes;
        const float x0 = u0[d], x1 = u1[d], x2 = u2[d], x3 = u3[d];
        for (std::size_t k = 0; k < kScoreLanes; ++k) {
          acc0[k] += x0 * w[k];
          acc1[k] += x1 * w[k];
          acc2[k] += x2 * w[k];
          acc3[k] += x3 * w[k];
        }
      }
      StoreLanes(o0, j0, acc0, valid);
      StoreLanes(o1, j0, acc1, valid);
      StoreLanes(o2, j0, acc2, valid);
      StoreLanes(o3, j0, acc3, valid);
#endif
    }
  }
  for (; u < num_users; ++u) {
    const float* user = users + u * dim;
    float* o = out + u * out_stride;
    for (std::size_t g = 0; g < groups; ++g) {
      const float* panel = items_packed + g * dim * kScoreLanes;
      const std::size_t j0 = g * kScoreLanes;
      const std::size_t valid = std::min(kScoreLanes, num_items - j0);
#if FEDREC_KERNELS_VECTOR
      Vec8 acc = Broadcast(0.0f);
      for (std::size_t d = 0; d < dim; ++d) {
        acc += user[d] * LoadU(panel + d * kScoreLanes);
      }
      if (valid == kScoreLanes) {
        StoreU(o + j0, acc);
      } else {
        float lanes[kScoreLanes];
        StoreU(lanes, acc);
        StoreLanes(o, j0, lanes, valid);
      }
#else
      float acc[kScoreLanes] = {0.0f};
      for (std::size_t d = 0; d < dim; ++d) {
        const float* w = panel + d * kScoreLanes;
        const float x = user[d];
        for (std::size_t k = 0; k < kScoreLanes; ++k) acc[k] += x * w[k];
      }
      StoreLanes(o, j0, acc, valid);
#endif
    }
  }
}

namespace {

inline float Max(float a, float b) { return a < b ? b : a; }

}  // namespace

FEDREC_KERNEL_CLONES
void BlockMaxima(const float* x, std::size_t n, float* out) {
  std::size_t b = 0;
#if FEDREC_KERNELS_VECTOR
  static_assert(kMaxBlock == 16, "the vector path folds two lane groups");
  for (; (b + 1) * kMaxBlock <= n; ++b) {
    const float* p = x + b * kMaxBlock;
    const Vec8 lo = LoadU(p);
    const Vec8 hi = LoadU(p + 8);
    const Vec8 m = lo < hi ? hi : lo;
    out[b] = Max(Max(Max(m[0], m[4]), Max(m[1], m[5])),
                 Max(Max(m[2], m[6]), Max(m[3], m[7])));
  }
#endif
  for (; b * kMaxBlock < n; ++b) {
    const std::size_t end = std::min(n, (b + 1) * kMaxBlock);
    float m = x[b * kMaxBlock];
    for (std::size_t i = b * kMaxBlock + 1; i < end; ++i) m = Max(m, x[i]);
    out[b] = m;
  }
}

namespace {

/// a, b <- min(a, b), max(a, b) elementwise over dim floats. A lane swaps
/// only when b < a, in both paths, so equal values (and -0.0 / +0.0 pairs)
/// stay where they are and the two paths agree bit for bit.
inline void CompareExchangeRows(float* a, float* b, std::size_t dim) {
  std::size_t d = 0;
#if FEDREC_KERNELS_VECTOR
  for (; d + 8 <= dim; d += 8) {
    const Vec8 x = LoadU(a + d);
    const Vec8 y = LoadU(b + d);
    const auto swap = y < x;
    StoreU(a + d, swap ? y : x);
    StoreU(b + d, swap ? x : y);
  }
#endif
  for (; d < dim; ++d) {
    const float x = a[d];
    const float y = b[d];
    const bool swap = y < x;
    a[d] = swap ? y : x;
    b[d] = swap ? x : y;
  }
}

}  // namespace

FEDREC_KERNEL_CLONES
void SortColumns(float* tile, std::size_t n, std::size_t dim) {
  // Batcher's odd-even merge sort in its iterative form for arbitrary n:
  // merge sorted runs of p rows into runs of 2p (p = 1, 2, 4, ...), each
  // merge a cascade of compare-exchanges at strides k = p, p/2, ..., 1.
  // Comparators are kept only when both rows lie in the same 2p-run and
  // below n; the dropped ones are the no-ops of the +inf-padded network.
  for (std::size_t p = 1, run_shift = 1; p < n; p <<= 1, ++run_shift) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        const std::size_t i_end = std::min(k, n - j - k);
        for (std::size_t i = 0; i < i_end; ++i) {
          const std::size_t lo = i + j;
          const std::size_t hi = lo + k;
          if ((lo >> run_shift) == (hi >> run_shift)) {
            CompareExchangeRows(tile + lo * dim, tile + hi * dim, dim);
          }
        }
      }
    }
  }
}

}  // namespace kernels
}  // namespace fedrec
