#include "common/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace fedrec {

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillGaussian(Rng& rng, float mean, float stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.NextGaussian(mean, stddev));
  }
}

void Matrix::FillUniform(Rng& rng, float lo, float hi) {
  FEDREC_CHECK_LE(lo, hi);
  for (float& v : data_) {
    v = lo + (hi - lo) * rng.NextFloat();
  }
}

void Matrix::Add(const Matrix& other, float alpha) {
  FEDREC_CHECK_EQ(rows_, other.rows_);
  FEDREC_CHECK_EQ(cols_, other.cols_);
  kernels::Axpy(alpha, other.data_.data(), data_.data(), data_.size());
}

float Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::size_t Matrix::CountNonZeroRows() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto row = Row(i);
    for (float v : row) {
      if (v != 0.0f) {
        ++count;
        break;
      }
    }
  }
  return count;
}

std::size_t SparseRowMatrix::FindSlot(std::size_t row) const {
  FEDREC_DCHECK(lookup_rows_.size() == index_.size())
      << "lookup is stale: BuildIndex() after AppendRowUnindexed()";
  // Out-of-range rejects are free and common (server probing absent rows).
  if (lookup_rows_.empty() || row < lookup_rows_.front() ||
      row > lookup_rows_.back()) {
    return kNpos;
  }
  const auto it =
      std::lower_bound(lookup_rows_.begin(), lookup_rows_.end(), row);
  if (it != lookup_rows_.end() && *it == row) {
    return lookup_slots_[static_cast<std::size_t>(it - lookup_rows_.begin())];
  }
  return kNpos;
}

std::span<float> SparseRowMatrix::RowMutable(std::size_t row) {
  std::size_t slot = FindSlot(row);
  if (slot == kNpos) {
    slot = index_.size();
    internal::NoteSparseGrowth(index_.size() + 1, index_.capacity());
    internal::NoteSparseGrowth(values_.size() + cols_, values_.capacity());
    internal::NoteSparseGrowth(lookup_rows_.size() + 1, lookup_rows_.capacity());
    internal::NoteSparseGrowth(lookup_slots_.size() + 1,
                               lookup_slots_.capacity());
    index_.push_back(row);
    values_.resize(values_.size() + cols_, 0.0f);
    const auto it =
        std::lower_bound(lookup_rows_.begin(), lookup_rows_.end(), row);
    const auto pos = it - lookup_rows_.begin();
    lookup_rows_.insert(it, row);
    lookup_slots_.insert(lookup_slots_.begin() + pos, slot);
  }
  return std::span<float>(values_.data() + slot * cols_, cols_);
}

std::size_t SparseRowMatrix::AppendRowUnindexed(std::size_t row) {
  internal::NoteSparseGrowth(index_.size() + 1, index_.capacity());
  internal::NoteSparseGrowth(values_.size() + cols_, values_.capacity());
  index_.push_back(row);
  values_.resize(values_.size() + cols_, 0.0f);
  return index_.size() - 1;
}

void SparseRowMatrix::BuildIndex() {
  const std::size_t rows = index_.size();
  internal::NoteSparseGrowth(rows, lookup_rows_.capacity());
  internal::NoteSparseGrowth(rows, lookup_slots_.capacity());
  lookup_rows_.resize(rows);
  lookup_slots_.resize(rows);
  // One plain integer sort of (row << 32 | slot) keys, with no indirection
  // through index_ in the comparator; row ids are item ids, far below 2^32.
  constexpr std::uint64_t kSlotMask = 0xFFFFFFFFu;
  for (std::size_t slot = 0; slot < rows; ++slot) {
    const std::uint64_t row = index_[slot];
    FEDREC_CHECK_LE(row, kSlotMask) << "row id beyond 32 bits";
    lookup_rows_[slot] = static_cast<std::size_t>(row << 32 | slot);
  }
  std::sort(lookup_rows_.begin(), lookup_rows_.end());
  for (std::size_t i = 0; i < rows; ++i) {
    lookup_slots_[i] = static_cast<std::size_t>(lookup_rows_[i] & kSlotMask);
    lookup_rows_[i] = static_cast<std::size_t>(lookup_rows_[i] >> 32);
  }
}

std::span<const float> SparseRowMatrix::Row(std::size_t row) const {
  const std::size_t slot = FindSlot(row);
  FEDREC_CHECK(slot != kNpos) << "row " << row << " absent from sparse upload";
  return std::span<const float>(values_.data() + slot * cols_, cols_);
}

bool SparseRowMatrix::Contains(std::size_t row) const {
  return FindSlot(row) != kNpos;
}

void SparseRowMatrix::Clear() {
  index_.clear();
  values_.clear();
  lookup_rows_.clear();
  lookup_slots_.clear();
}

void SparseRowMatrix::AddTo(Matrix& target, float alpha) const {
  FEDREC_CHECK_EQ(target.cols(), cols_);
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    const std::size_t row = index_[slot];
    FEDREC_CHECK_LT(row, target.rows());
    std::span<const float> src(values_.data() + slot * cols_, cols_);
    Axpy(alpha, src, target.Row(row));
  }
}

void SparseRowMatrix::ClipRows(float max_norm) {
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::span<float> row(values_.data() + slot * cols_, cols_);
    ClipL2(row, max_norm);
  }
}

void SparseRowMatrix::AddGaussianNoise(Rng& rng, float stddev) {
  if (stddev <= 0.0f) return;
  for (float& v : values_) {
    v += static_cast<float>(rng.NextGaussian(0.0, stddev));
  }
}

float SparseRowMatrix::MaxRowNorm() const {
  float max_norm = 0.0f;
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::span<const float> row(values_.data() + slot * cols_, cols_);
    max_norm = std::max(max_norm, L2Norm(row));
  }
  return max_norm;
}

std::size_t SparseRowMatrix::CountNonZeroRows() const {
  std::size_t count = 0;
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::span<const float> row(values_.data() + slot * cols_, cols_);
    for (float v : row) {
      if (v != 0.0f) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void SparseRoundDelta::AddTo(Matrix& target, float alpha) const {
  FEDREC_CHECK_EQ(target.cols(), cols_);
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    const std::size_t row = rows_[slot];
    FEDREC_CHECK_LT(row, target.rows());
    kernels::Axpy(alpha, values_.data() + slot * cols_,
                  target.Row(row).data(), cols_);
  }
}

Matrix SparseRoundDelta::ToDense(std::size_t num_items) const {
  Matrix dense(num_items, cols_);
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    FEDREC_CHECK_LT(rows_[slot], num_items);
    std::copy(values_.begin() + static_cast<std::ptrdiff_t>(slot * cols_),
              values_.begin() + static_cast<std::ptrdiff_t>((slot + 1) * cols_),
              dense.Row(rows_[slot]).begin());
  }
  return dense;
}

}  // namespace fedrec
