#include "model/bpr.h"

#include <algorithm>

#include "common/math.h"
#include "common/stamp_set.h"

namespace fedrec {

void SampleNegativesInto(const std::vector<std::uint32_t>& positives,
                         std::size_t num_items, std::size_t count, Rng& rng,
                         std::vector<std::uint32_t>& out) {
  FEDREC_CHECK_GT(num_items, 0u);
  const std::size_t complement =
      num_items > positives.size() ? num_items - positives.size() : 0;
  const std::size_t want = std::min(count, complement);
  out.resize(want);
  if (want == 0) return;

  // Per-thread catalogue marks: the user's positives carry one mark and the
  // accepted negatives another, so either membership test is one load.
  static thread_local StampSet marks;
  marks.Grow(num_items);
  const std::uint32_t positive = marks.NewMark();
  const std::uint32_t taken = marks.NewMark();
  const auto in_range =
      std::lower_bound(positives.begin(), positives.end(), num_items);
  for (auto it = positives.begin(); it != in_range; ++it) {
    marks.Set(*it, positive);
  }

  if (want * 4 >= complement) {
    // Dense regime: enumerate the complement in ascending order and sample
    // it exactly (the draws of the returning SampleWithoutReplacement).
    static thread_local std::vector<std::uint32_t> pool;
    static thread_local std::vector<std::size_t> picks;
    pool.clear();
    for (std::uint32_t item = 0; item < num_items; ++item) {
      if (!marks.Has(item, positive)) pool.push_back(item);
    }
    rng.SampleWithoutReplacementInto(pool.size(), want, picks);
    for (std::size_t n = 0; n < want; ++n) out[n] = pool[picks[n]];
    return;
  }
  // Sparse regime: rejection sampling. A candidate is rejected when it was
  // already taken or is a positive, exactly as with the sorted-set probes it
  // replaces, so the rng stream is unchanged.
  std::size_t n = 0;
  // fedrec:hot — O(want) expected, nothing scales with the catalogue.
  while (n < want) {
    const auto item = static_cast<std::uint32_t>(rng.NextBounded(num_items));
    if (marks.Has(item, taken) || marks.Has(item, positive)) continue;
    marks.Set(item, taken);
    out[n++] = item;
  }
}

std::vector<std::uint32_t> SampleNegatives(
    const std::vector<std::uint32_t>& positives, std::size_t num_items,
    std::size_t count, Rng& rng) {
  std::vector<std::uint32_t> negatives;
  SampleNegativesInto(positives, num_items, count, rng, negatives);
  return negatives;
}

BprPairResult BprPairLossAndCoefficient(double score_difference) {
  BprPairResult result;
  result.loss = -LogSigmoid(score_difference);
  result.coefficient = -Sigmoid(-score_difference);
  return result;
}

double ComputeLocalBprGradientsInto(
    std::span<const float> user_vector, const Matrix& item_factors,
    std::span<const std::uint32_t> positives,
    std::span<const std::uint32_t> negatives, float l2_reg,
    SparseRowMatrix& item_gradients, std::vector<float>& user_gradient,
    std::size_t& pair_count) {
  item_gradients.Reset(item_factors.cols());
  user_gradient.assign(user_vector.size(), 0.0f);
  pair_count = 0;
  double loss = 0.0;
  const std::size_t pairs = std::min(positives.size(), negatives.size());
  // The pair rows are a random scatter over a matrix much larger than cache;
  // issuing all their loads up front overlaps the miss latency instead of
  // serializing it through the dot products below.
  const std::size_t row_bytes = item_factors.cols() * sizeof(float);
  for (std::size_t p = 0; p < pairs; ++p) {
    kernels::PrefetchRead(item_factors.Row(positives[p]).data(), row_bytes);
    kernels::PrefetchRead(item_factors.Row(negatives[p]).data(), row_bytes);
  }
  // Per-thread item->slot map: a row is appended on first touch, which is
  // the insertion order RowMutable would give, and the upload's lookup is
  // sorted once at the end instead of one sorted insert per new row.
  static thread_local StampSet touched;
  static thread_local std::vector<std::uint32_t> slot_of;
  touched.Grow(item_factors.rows());
  if (slot_of.size() < item_factors.rows()) slot_of.resize(item_factors.rows());
  const std::uint32_t mark = touched.NewMark();
  // fedrec:hot — a first touch appends a row; growth only at high water.
  const auto slot_for = [&](std::uint32_t item) {
    if (!touched.Has(item, mark)) {
      touched.Set(item, mark);
      slot_of[item] =
          static_cast<std::uint32_t>(item_gradients.AppendRowUnindexed(item));
    }
    return item_gradients.RowAtSlotMutable(slot_of[item]);
  };
  // fedrec:hot — one stamp probe per row touch.
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::uint32_t pos = positives[p];
    const std::uint32_t neg = negatives[p];
    const auto v_pos = item_factors.Row(pos);
    const auto v_neg = item_factors.Row(neg);
    const double x = static_cast<double>(Dot(user_vector, v_pos)) -
                     static_cast<double>(Dot(user_vector, v_neg));
    const BprPairResult pair = BprPairLossAndCoefficient(x);
    loss += pair.loss;
    const float c = static_cast<float>(pair.coefficient);
    // dL/du = c * (v_pos - v_neg); dL/dv_pos = c * u; dL/dv_neg = -c * u.
    std::span<float> grad_u(user_gradient);
    Axpy(c, v_pos, grad_u);
    Axpy(-c, v_neg, grad_u);
    Axpy(c, user_vector, slot_for(pos));
    Axpy(-c, user_vector, slot_for(neg));
    ++pair_count;
  }
  if (l2_reg > 0.0f) {
    Axpy(l2_reg, user_vector, std::span<float>(user_gradient));
    const std::vector<std::size_t>& rows = item_gradients.row_ids();
    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
      Axpy(l2_reg, item_factors.Row(rows[slot]),
           item_gradients.RowAtSlotMutable(slot));
    }
  }
  item_gradients.BuildIndex();
  return loss;
}

LocalBprGradients ComputeLocalBprGradients(
    std::span<const float> user_vector, const Matrix& item_factors,
    const std::vector<std::uint32_t>& positives,
    const std::vector<std::uint32_t>& negatives, float l2_reg) {
  LocalBprGradients out;
  out.loss = ComputeLocalBprGradientsInto(
      user_vector, item_factors, std::span<const std::uint32_t>(positives),
      std::span<const std::uint32_t>(negatives), l2_reg, out.item_gradients,
      out.user_gradient, out.pair_count);
  return out;
}

double TrainBprEpoch(Matrix& user_factors, Matrix& item_factors,
                     const std::vector<Interaction>& interactions,
                     const std::vector<std::vector<std::uint32_t>>& user_positives,
                     const BprTrainOptions& options, Rng& rng) {
  FEDREC_CHECK_EQ(user_factors.cols(), item_factors.cols());
  if (interactions.empty()) return 0.0;
  std::vector<std::size_t> order(interactions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);

  const std::size_t num_items = item_factors.rows();
  double total_loss = 0.0;
  std::size_t total_pairs = 0;
  // Reused across every pair of the epoch; see the update_items branch.
  std::vector<float> u_copy;
  for (std::size_t idx : order) {
    const Interaction& tuple = interactions[idx];
    const auto user_row = user_factors.Row(tuple.user);
    const auto& positives = user_positives[tuple.user];
    for (std::size_t n = 0; n < options.negatives_per_positive; ++n) {
      // Draw one negative outside the user's positive set.
      std::uint32_t neg = 0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        neg = static_cast<std::uint32_t>(rng.NextBounded(num_items));
        if (!std::binary_search(positives.begin(), positives.end(), neg)) break;
      }
      const auto v_pos = item_factors.Row(tuple.item);
      const auto v_neg = item_factors.Row(neg);
      const double x = static_cast<double>(Dot(user_row, v_pos)) -
                       static_cast<double>(Dot(user_row, v_neg));
      const BprPairResult pair = BprPairLossAndCoefficient(x);
      total_loss += pair.loss;
      ++total_pairs;
      const float c = static_cast<float>(pair.coefficient);
      const float lr = options.learning_rate;
      if (options.update_users) {
        // u <- u - lr * (c * (v_pos - v_neg) + reg * u)
        std::span<float> u = user_factors.Row(tuple.user);
        Axpy(-lr * c, v_pos, u);
        Axpy(lr * c, v_neg, u);
        if (options.l2_reg > 0.0f) Scale(1.0f - lr * options.l2_reg, u);
      }
      if (options.update_items) {
        u_copy.assign(user_row.begin(), user_row.end());
        std::span<const float> u(u_copy);
        std::span<float> vp = item_factors.Row(tuple.item);
        std::span<float> vn = item_factors.Row(neg);
        Axpy(-lr * c, u, vp);
        Axpy(lr * c, u, vn);
        if (options.l2_reg > 0.0f) {
          Scale(1.0f - lr * options.l2_reg, vp);
          Scale(1.0f - lr * options.l2_reg, vn);
        }
      }
    }
  }
  return total_pairs == 0 ? 0.0 : total_loss / static_cast<double>(total_pairs);
}

double TrainBpr(Matrix& user_factors, Matrix& item_factors, const Dataset& data,
                const BprTrainOptions& options, std::size_t epochs, Rng& rng) {
  std::vector<std::vector<std::uint32_t>> positives(data.num_users());
  for (std::size_t u = 0; u < data.num_users(); ++u) {
    positives[u] = data.UserItems(u);
  }
  const std::vector<Interaction> interactions = data.AllInteractions();
  double loss = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    loss = TrainBprEpoch(user_factors, item_factors, interactions, positives,
                         options, rng);
  }
  return loss;
}

}  // namespace fedrec
