#include "model/metrics.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/kernels.h"
#include "model/bpr.h"
#include "model/topk.h"

namespace fedrec {

double MetricsResult::ErAt(std::size_t k, const MetricsConfig& config) const {
  for (std::size_t i = 0; i < config.er_ks.size(); ++i) {
    if (config.er_ks[i] == k) return er_at[i];
  }
  FEDREC_CHECK(false) << "ER@" << k << " was not configured";
  return 0.0;
}

Evaluator::Evaluator(const Dataset& train, std::vector<std::int64_t> test_items,
                     MetricsConfig config, std::uint64_t seed)
    : train_(&train), test_items_(std::move(test_items)), config_(std::move(config)) {
  FEDREC_CHECK_EQ(test_items_.size(), train.num_users());
  FEDREC_CHECK(!config_.er_ks.empty());
  // Fixed HR candidate sets: held-out item + `hr_negatives` items the user has
  // not interacted with (and which are not the held-out item itself).
  Rng rng(seed);
  hr_candidates_.resize(train.num_users());
  for (std::size_t u = 0; u < train.num_users(); ++u) {
    const std::int64_t test_item = test_items_[u];
    if (test_item == LeaveOneOutSplit::kNoTestItem) continue;
    Rng user_rng = rng.Fork(u);
    std::vector<std::uint32_t> excluded = train.UserItems(u);
    excluded.push_back(static_cast<std::uint32_t>(test_item));
    std::sort(excluded.begin(), excluded.end());
    std::vector<std::uint32_t> negatives = SampleNegatives(
        excluded, train.num_items(), config_.hr_negatives, user_rng);
    auto& candidates = hr_candidates_[u];
    candidates.reserve(negatives.size() + 1);
    candidates.push_back(static_cast<std::uint32_t>(test_item));
    candidates.insert(candidates.end(), negatives.begin(), negatives.end());
  }
}

MetricsResult Evaluator::Evaluate(const Matrix& user_factors,
                                  const Matrix& item_factors,
                                  const std::vector<std::uint32_t>& target_items,
                                  ThreadPool* pool) const {
  return EvaluateWithConfig(config_, /*with_hr=*/true, user_factors,
                            item_factors, target_items, pool);
}

MetricsResult Evaluator::EvaluateWithConfig(
    const MetricsConfig& config, bool with_hr, const Matrix& user_factors,
    const Matrix& item_factors, const std::vector<std::uint32_t>& target_items,
    ThreadPool* pool) const {
  const std::size_t num_users = train_->num_users();
  const std::size_t num_items = train_->num_items();
  FEDREC_CHECK_EQ(user_factors.rows(), num_users);
  FEDREC_CHECK_EQ(item_factors.rows(), num_items);
  FEDREC_CHECK_EQ(user_factors.cols(), item_factors.cols());

  std::size_t max_k = config.ndcg_k;
  for (std::size_t k : config.er_ks) max_k = std::max(max_k, k);

  std::vector<std::uint32_t> sorted_targets = target_items;
  std::sort(sorted_targets.begin(), sorted_targets.end());

  // Per-user accumulators, summed after the parallel sweep.
  std::vector<std::vector<double>> er_user(config.er_ks.size());
  for (auto& v : er_user) v.assign(num_users, 0.0);
  std::vector<double> ndcg_user(num_users, 0.0);
  std::vector<double> hr_user(num_users, 0.0);

  // Users are scored in fixed-size blocks through the blocked batch-scoring
  // kernel over a once-per-call packed item matrix: each loaded item lane
  // group is shared by the whole user block instead of re-streaming item rows
  // per user, and scores accumulate as pure vertical SIMD. The block
  // partition is a constant, so results are identical whether a pool is used
  // or not.
  const std::size_t dim = item_factors.cols();
  std::vector<float> items_packed(kernels::PackedItemsSize(num_items, dim));
  kernels::PackItems(item_factors.Data().data(), num_items, dim,
                     items_packed.data());
  constexpr std::size_t kUserBlock = 8;
  const std::size_t num_blocks = (num_users + kUserBlock - 1) / kUserBlock;
  ParallelFor(pool, num_blocks, [&](std::size_t block) {
    // Reusable per-thread scoring and top-K buffers — no per-user allocation.
    static thread_local std::vector<float> scores_buffer;
    static thread_local std::vector<std::uint32_t> rec;
    scores_buffer.resize(kUserBlock * num_items);
    const std::size_t user_begin = block * kUserBlock;
    const std::size_t user_end =
        std::min(user_begin + kUserBlock, num_users);
    kernels::ScoreBlockPacked(user_factors.Row(user_begin).data(),
                              user_end - user_begin, items_packed.data(),
                              num_items, dim, scores_buffer.data(),
                              num_items);
    for (std::size_t u = user_begin; u < user_end; ++u) {
      const std::span<const float> scores(
          scores_buffer.data() + (u - user_begin) * num_items, num_items);
      const auto& interacted = train_->UserItems(u);
      TopKIndicesExcludingSortedInto(scores, max_k, interacted, rec);

      // Number of target items the user has not interacted with:
      // |Vtar ^ V-_i|.
      std::size_t targets_available = 0;
      for (std::uint32_t t : sorted_targets) {
        if (!std::binary_search(interacted.begin(), interacted.end(), t)) {
          ++targets_available;
        }
      }

      if (targets_available > 0) {
        // ER@K (Eq. 8) for every configured K.
        for (std::size_t ki = 0; ki < config.er_ks.size(); ++ki) {
          const std::size_t k = config.er_ks[ki];
          std::size_t hits = 0;
          for (std::size_t r = 0; r < rec.size() && r < k; ++r) {
            if (std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                                   rec[r])) {
              ++hits;
            }
          }
          er_user[ki][u] = static_cast<double>(hits) /
                           static_cast<double>(targets_available);
        }
        // NDCG@K of target items.
        double dcg = 0.0;
        for (std::size_t r = 0; r < rec.size() && r < config.ndcg_k; ++r) {
          if (std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                                 rec[r])) {
            dcg += 1.0 / std::log2(static_cast<double>(r) + 2.0);
          }
        }
        double idcg = 0.0;
        const std::size_t ideal = std::min(targets_available, config.ndcg_k);
        for (std::size_t r = 0; r < ideal; ++r) {
          idcg += 1.0 / std::log2(static_cast<double>(r) + 2.0);
        }
        ndcg_user[u] = idcg > 0.0 ? dcg / idcg : 0.0;
      }

      // HR@K over the fixed sampled candidate set ([1]'s protocol).
      const auto& candidates = hr_candidates_[u];
      if (with_hr && !candidates.empty()) {
        const float test_score = scores[candidates[0]];
        std::size_t rank = 0;
        for (std::size_t c = 1; c < candidates.size(); ++c) {
          const float s = scores[candidates[c]];
          if (s > test_score ||
              (s == test_score && candidates[c] < candidates[0])) {
            ++rank;
          }
        }
        hr_user[u] = rank < config.hr_k ? 1.0 : 0.0;
      }
    }
  });

  MetricsResult result;
  result.er_at.assign(config.er_ks.size(), 0.0);
  for (std::size_t ki = 0; ki < config.er_ks.size(); ++ki) {
    double sum = 0.0;
    for (double v : er_user[ki]) sum += v;
    result.er_at[ki] = num_users == 0 ? 0.0 : sum / static_cast<double>(num_users);
  }
  double ndcg_sum = 0.0;
  for (double v : ndcg_user) ndcg_sum += v;
  result.ndcg = num_users == 0 ? 0.0 : ndcg_sum / static_cast<double>(num_users);

  if (with_hr) {
    double hr_sum = 0.0;
    std::size_t hr_users = 0;
    for (std::size_t u = 0; u < num_users; ++u) {
      if (!hr_candidates_[u].empty()) {
        hr_sum += hr_user[u];
        ++hr_users;
      }
    }
    result.hit_ratio =
        hr_users == 0 ? 0.0 : hr_sum / static_cast<double>(hr_users);
  }
  return result;
}

double Evaluator::ExposureRatio(const Matrix& user_factors,
                                const Matrix& item_factors,
                                const std::vector<std::uint32_t>& target_items,
                                std::size_t k, ThreadPool* pool) const {
  MetricsConfig minimal;
  minimal.er_ks = {k};
  minimal.ndcg_k = 1;
  const MetricsResult r = EvaluateWithConfig(minimal, /*with_hr=*/false,
                                             user_factors, item_factors,
                                             target_items, pool);
  return r.er_at[0];
}

}  // namespace fedrec
