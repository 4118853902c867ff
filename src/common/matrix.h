#ifndef FEDREC_COMMON_MATRIX_H_
#define FEDREC_COMMON_MATRIX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

/// \file
/// Row-major dense float matrix. Rows are the unit of exchange in federated
/// recommendation: item feature vectors v_j and user feature vectors u_i are
/// rows, and uploaded gradients are (sparse sets of) rows.

namespace fedrec {

namespace internal {
/// Process-wide count of heap-growth events in the sparse round containers
/// (SparseRowMatrix, SparseRoundDelta). Incremented whenever an internal
/// buffer must reallocate; operations served from retained capacity add
/// nothing. The round loop's steady-state zero-allocation guarantee is
/// measured against this counter (tests and the benchmark's
/// shard.allocs_per_round).
inline std::atomic<std::uint64_t> g_sparse_allocations{0};

/// Notes one growth event when `needed` exceeds `capacity`.
inline void NoteSparseGrowth(std::size_t needed, std::size_t capacity) {
  if (needed > capacity) {
    g_sparse_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace internal

/// Current value of the sparse-container allocation counter.
inline std::uint64_t SparseAllocationCount() {
  return internal::g_sparse_allocations.load(std::memory_order_relaxed);
}

/// Resets the sparse-container allocation counter to zero.
inline void ResetSparseAllocationCount() {
  internal::g_sparse_allocations.store(0, std::memory_order_relaxed);
}

/// Row-major dense matrix of float with contiguous storage.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Mutable view of row i.
  std::span<float> Row(std::size_t i) {
    FEDREC_DCHECK(i < rows_);
    return std::span<float>(data_.data() + i * cols_, cols_);
  }
  /// Const view of row i.
  std::span<const float> Row(std::size_t i) const {
    FEDREC_DCHECK(i < rows_);
    return std::span<const float>(data_.data() + i * cols_, cols_);
  }

  float& At(std::size_t i, std::size_t j) {
    FEDREC_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  float At(std::size_t i, std::size_t j) const {
    FEDREC_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Whole backing store (row-major).
  std::span<float> Data() { return data_; }
  std::span<const float> Data() const { return data_; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to an independent N(mean, stddev^2) draw. The standard
  /// initializer for feature matrices (paper uses small Gaussian init).
  void FillGaussian(Rng& rng, float mean, float stddev);

  /// Sets every element to an independent U[lo, hi) draw.
  void FillUniform(Rng& rng, float lo, float hi);

  /// this += alpha * other (same shape required).
  void Add(const Matrix& other, float alpha = 1.0f);

  /// Frobenius norm of the whole matrix.
  float FrobeniusNorm() const;

  /// Number of rows with a nonzero entry — the quantity bounded by kappa in
  /// Eq. (9)/(10) of the paper.
  std::size_t CountNonZeroRows() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<float> data_;
};

/// A sparse set of matrix rows — the wire format of a federated upload.
/// A benign client uploads gradient rows only for the items it touched; a
/// malicious client uploads rows only for its selected item set V_i, so the
/// server-visible footprint of both is identical in kind.
class SparseRowMatrix {
 public:
  SparseRowMatrix() : cols_(0) {}
  explicit SparseRowMatrix(std::size_t cols) : cols_(cols) {}

  std::size_t cols() const { return cols_; }
  std::size_t row_count() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Row ids currently present, in insertion order.
  const std::vector<std::size_t>& row_ids() const { return index_; }

  /// Returns a mutable view of row `row`, creating a zero row if absent.
  /// A new row costs a sorted insert into the lookup, so bulk builders with
  /// many rows use AppendRowUnindexed + BuildIndex instead.
  std::span<float> RowMutable(std::size_t row);

  /// Appends a zero row for `row`, which must be absent, and returns its
  /// slot without updating the lookup: Row(), Contains() and RowMutable()
  /// are invalid until BuildIndex() runs. The caller tracks its own
  /// row->slot map meanwhile (ComputeLocalBprGradientsInto stamps one).
  std::size_t AppendRowUnindexed(std::size_t row);

  /// Rebuilds the lookup from row_ids() with one sort.
  void BuildIndex();

  /// Mutable view of the row stored at `slot`.
  std::span<float> RowAtSlotMutable(std::size_t slot) {
    FEDREC_DCHECK(slot < index_.size());
    return std::span<float>(values_.data() + slot * cols_, cols_);
  }

  /// Const view of row `row`; aborts if the row is absent (see Contains()).
  std::span<const float> Row(std::size_t row) const;

  /// Const view of the row stored at `slot` (its id is row_ids()[slot]).
  /// O(1) — the fast path for full sweeps over an upload, with no per-row
  /// id lookup.
  std::span<const float> RowAtSlot(std::size_t slot) const {
    FEDREC_DCHECK(slot < index_.size());
    return std::span<const float>(values_.data() + slot * cols_, cols_);
  }

  bool Contains(std::size_t row) const;

  /// Removes all rows (keeps the column count).
  void Clear();

  /// Drops all rows and sets the column count; every internal buffer keeps
  /// its capacity, so refilling a recycled upload with a same-shaped round
  /// performs no heap allocations (the basis of Client::TrainRoundInto).
  void Reset(std::size_t cols) {
    cols_ = cols;
    Clear();
  }

  /// Accumulates `this` into the dense `target` scaled by alpha.
  void AddTo(Matrix& target, float alpha = 1.0f) const;

  /// Clips every stored row to L2 norm <= max_norm (Eq. 23).
  void ClipRows(float max_norm);

  /// Adds independent N(0, stddev^2) noise to every stored element (Eq. 5).
  void AddGaussianNoise(Rng& rng, float stddev);

  /// Maximum L2 norm across stored rows (0 when empty).
  float MaxRowNorm() const;

  /// Number of rows that contain at least one nonzero element.
  std::size_t CountNonZeroRows() const;

 private:
  std::size_t cols_;
  std::vector<std::size_t> index_;   // row ids, insertion order
  std::vector<float> values_;        // row_count * cols, row-major
  // Row-id -> slot map as two parallel sorted vectors. Splitting keys from
  // slots keeps the binary-searched keys contiguous in cache, and lookups are
  // O(log rows) with no per-node allocation. Uploads range from a few dozen
  // rows (attack, wire decode) to thousands (heavy benign clients), which is
  // why bulk builders sort once in BuildIndex instead of inserting per row.
  std::vector<std::size_t> lookup_rows_;   // sorted row ids
  std::vector<std::size_t> lookup_slots_;  // slot for lookup_rows_[i]

  std::size_t FindSlot(std::size_t row) const;  // npos when absent
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
};

/// The server's aggregate of one federated round, restricted to the item rows
/// the round's clients actually uploaded (Eq. 7 only ever moves those rows).
/// Unlike SparseRowMatrix this is not a wire format: rows are appended in
/// ascending id order by the aggregator, there is no id->slot lookup, and
/// Reset() keeps the backing capacity so a round loop that reuses one delta
/// performs zero steady-state allocations.
class SparseRoundDelta {
 public:
  SparseRoundDelta() = default;

  /// Drops all rows and sets the column count; capacity is retained. The
  /// value store is a high-water buffer: it is never shrunk or cleared, so a
  /// same-shaped next round reuses it without a single write.
  void Reset(std::size_t cols) {
    cols_ = cols;
    rows_.clear();
  }

  std::size_t cols() const { return cols_; }
  std::size_t row_count() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Touched row ids in strictly ascending order.
  const std::vector<std::size_t>& rows() const { return rows_; }

  /// Appends a row for `row` and returns its view WITHOUT zeroing it — for
  /// callers that overwrite every element before reading it back (the wire
  /// decoder and the shard merge copy whole rows in). The returned storage
  /// holds whatever the previous round left in the high-water buffer. Ids
  /// must arrive in strictly ascending order.
  std::span<float> AppendRowForOverwrite(std::size_t row) {
    FEDREC_DCHECK(rows_.empty() || rows_.back() < row);
    internal::NoteSparseGrowth(rows_.size() + 1, rows_.capacity());
    rows_.push_back(row);
    const std::size_t needed = rows_.size() * cols_;
    if (values_.size() < needed) {
      internal::NoteSparseGrowth(needed, values_.capacity());
      values_.resize(needed);
    }
    return std::span<float>(values_.data() + (rows_.size() - 1) * cols_, cols_);
  }

  /// Appends a zeroed row for `row` and returns its mutable view. Ids must
  /// arrive in strictly ascending order (the aggregator walks its sorted
  /// row->contributors index).
  std::span<float> AppendRow(std::size_t row) {
    std::span<float> slot = AppendRowForOverwrite(row);
    std::fill(slot.begin(), slot.end(), 0.0f);  // reused storage may be stale
    return slot;
  }

  /// Bulk row assignment for callers that overwrite every element of every
  /// row before reading it back (the aggregator's rules all do: they copy or
  /// write their first contribution instead of accumulating onto zeros).
  /// Skips the per-round zero-fill entirely — the values are whatever the
  /// previous round left in the high-water buffer until the caller writes.
  void AssignRowsForOverwrite(const std::vector<std::size_t>& rows) {
    internal::NoteSparseGrowth(rows.size(), rows_.capacity());
    rows_ = rows;
    const std::size_t needed = rows_.size() * cols_;
    if (values_.size() < needed) {
      internal::NoteSparseGrowth(needed, values_.capacity());
      values_.resize(needed);
    }
  }

  std::span<float> RowAtSlot(std::size_t slot) {
    FEDREC_DCHECK(slot < rows_.size());
    return std::span<float>(values_.data() + slot * cols_, cols_);
  }
  std::span<const float> RowAtSlot(std::size_t slot) const {
    FEDREC_DCHECK(slot < rows_.size());
    return std::span<const float>(values_.data() + slot * cols_, cols_);
  }

  /// Scatters `target.Row(rows()[slot]) += alpha * RowAtSlot(slot)` for every
  /// stored row — the sparse application of Eq. (7).
  void AddTo(Matrix& target, float alpha = 1.0f) const;

  /// Materializes the delta as a dense num_items x dim gradient (untouched
  /// rows zero). Compatibility/test path only — the round loop never calls it.
  Matrix ToDense(std::size_t num_items) const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> rows_;  // ascending
  std::vector<float> values_;      // row_count * cols, row-major
};

}  // namespace fedrec

#endif  // FEDREC_COMMON_MATRIX_H_
