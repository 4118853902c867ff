#include "attack/fedrecattack.h"

#include <algorithm>
#include <functional>
#include <span>

#include "common/kernels.h"
#include "common/math.h"
#include "model/topk.h"

namespace fedrec {
namespace {

/// True when the sorted `items` hold `item`. D' gives most users one to a
/// few public items, where a branch-free scan beats a binary search's
/// mispredicted branches.
bool SortedContains(std::span<const std::uint32_t> items, std::uint32_t item) {
  if (items.size() > 16) {
    return std::binary_search(items.begin(), items.end(), item);
  }
  bool hit = false;
  for (std::uint32_t x : items) hit |= x == item;
  return hit;
}

}  // namespace

FedRecAttack::FedRecAttack(FedRecAttackConfig config,
                           const PublicInteractions* public_view,
                           std::size_t num_benign, std::size_t dim)
    : config_(std::move(config)), public_view_(public_view), rng_(config_.seed) {
  FEDREC_CHECK(public_view_ != nullptr);
  FEDREC_CHECK(!config_.target_items.empty()) << "no target items configured";
  FEDREC_CHECK_GT(config_.rec_k, 0u);
  FEDREC_CHECK_EQ(public_view_->num_users(), num_benign);

  u_hat_ = Matrix(num_benign, dim);
  u_hat_.FillGaussian(rng_, 0.0f, 0.1f);

  public_offsets_.assign(1, 0);
  for (std::size_t u = 0; u < num_benign; ++u) {
    const auto& items = public_view_->UserItems(u);
    public_items_.insert(public_items_.end(), items.begin(), items.end());
    FEDREC_CHECK_LT(public_items_.size(), std::size_t{0xFFFFFFFFu});
    public_offsets_.push_back(static_cast<std::uint32_t>(public_items_.size()));
  }
  public_interactions_ = public_view_->AllInteractions();
  shuffled_.resize(public_interactions_.size());
  steps_.resize(2 * public_interactions_.size());
  step_cursor_.resize(num_benign);
  sorted_targets_ = config_.target_items;
  std::sort(sorted_targets_.begin(), sorted_targets_.end());
}

void FedRecAttack::ApproximateUsers(const Matrix& item_factors,
                                    std::size_t epochs, ThreadPool* pool) {
  // xi = 0 leaves nothing to learn from.
  if (public_items_.empty() || epochs == 0) return;
  // Eq. (19): argmin_U L_rec(U, V; D') with V frozen. A step for user u
  // reads V and writes only row u of U-hat, so once an epoch's draws are
  // known the users are independent: the pool applies them in blocks while
  // each user's own steps keep their draw order.
  FEDREC_CHECK_EQ(item_factors.cols(), u_hat_.cols());
  const std::size_t num_items = item_factors.rows();
  const std::size_t num_users = u_hat_.rows();
  const std::size_t n = public_interactions_.size();
  // Epoch e's steps live in half e % 2 of steps_, so the draws of epoch
  // e + 1 can run on this thread while the pool applies epoch e: the draws
  // touch only rng_ and the other half.
  DrawEpoch(num_items, steps_.data());
  for (std::size_t e = 0; e < epochs; ++e) {
    const BprStep* drawn = steps_.data() + (e % 2) * n;
    BprStep* next = steps_.data() + ((e + 1) % 2) * n;
    const bool more = e + 1 < epochs;
    if (pool == nullptr) {
      ApplyUserSteps(item_factors, drawn, 0, num_users);
      if (more) DrawEpoch(num_items, next);
      continue;
    }
    const std::size_t num_tasks = std::min(
        num_users, pool->thread_count() * kApplyTasksPerThread);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_tasks);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      tasks.emplace_back([this, &item_factors, drawn,
                          begin = t * num_users / num_tasks,
                          end = (t + 1) * num_users / num_tasks] {
        ApplyUserSteps(item_factors, drawn, begin, end);
      });
    }
    pool->SubmitBatch(std::move(tasks));
    if (more) DrawEpoch(num_items, next);
    pool->Wait();
  }
}

void FedRecAttack::DrawEpoch(std::size_t num_items, BprStep* steps) {
  // TrainBprEpoch shuffles an index order over D'; shuffling the tuples
  // themselves with the same swaps visits them in the same order.
  std::copy(public_interactions_.begin(), public_interactions_.end(),
            shuffled_.begin());
  rng_.Shuffle(shuffled_);
  std::copy(public_offsets_.begin(), public_offsets_.end() - 1,
            step_cursor_.begin());
  // fedrec:hot
  for (const Interaction& tuple : shuffled_) {
    // Up to 64 draws for a negative outside the user's public positives;
    // the last draw stands when every one of them hit a positive.
    const std::span<const std::uint32_t> positives = PublicItems(tuple.user);
    std::uint32_t neg = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      neg = static_cast<std::uint32_t>(rng_.NextBounded(num_items));
      if (!SortedContains(positives, neg)) break;
    }
    steps[step_cursor_[tuple.user]++] = {tuple.item, neg};
  }
}

void FedRecAttack::ApplyUserSteps(const Matrix& item_factors,
                                  const BprStep* steps, std::size_t begin,
                                  std::size_t end) {
  const float lr = config_.approx_lr;
  // fedrec:hot
  for (std::size_t u = begin; u < end; ++u) {
    const std::span<float> user_row = u_hat_.Row(u);
    for (std::uint32_t k = public_offsets_[u]; k < public_offsets_[u + 1];
         ++k) {
      // TrainBprEpoch's user update: u <- u - lr * c * (v_pos - v_neg), with
      // c = dLoss/dx = -sigmoid(-x) at x = u.v_pos - u.v_neg.
      const auto v_pos = item_factors.Row(steps[k].item);
      const auto v_neg = item_factors.Row(steps[k].neg);
      const double x = static_cast<double>(Dot(user_row, v_pos)) -
                       static_cast<double>(Dot(user_row, v_neg));
      const float c = static_cast<float>(-Sigmoid(-x));
      Axpy(-lr * c, v_pos, user_row);
      Axpy(lr * c, v_neg, user_row);
    }
  }
}

Matrix FedRecAttack::ComputePoisonGradient(const Matrix& item_factors,
                                           ThreadPool* pool) {
  Matrix gradient;
  ComputePoisonGradientInto(item_factors, pool, gradient);
  return gradient;
}

void FedRecAttack::ComputePoisonGradientInto(const Matrix& item_factors,
                                             ThreadPool* pool,
                                             Matrix& gradient) {
  const std::size_t num_items = item_factors.rows();
  const std::size_t dim = item_factors.cols();
  const std::size_t num_users = u_hat_.rows();
  FEDREC_CHECK_EQ(u_hat_.cols(), dim);
  if (gradient.rows() != num_items || gradient.cols() != dim) {
    gradient = Matrix(num_items, dim);
  } else {
    gradient.Fill(0.0f);
  }

  // Ablation semantics: with no public knowledge at all the attacker cannot
  // rationally approximate U, so no poisoned gradient can be formed (the
  // paper's Table IX shows the attack collapsing to zero effect).
  if (public_items_.empty()) return;

  // Optional user subsampling turns Eq. (20) into a stochastic gradient.
  step_users_.clear();
  double scale = static_cast<double>(config_.step_size);
  if (config_.users_per_step > 0 && config_.users_per_step < num_users) {
    rng_.SampleWithoutReplacementInto(num_users, config_.users_per_step,
                                      sampled_users_);
    for (std::size_t idx : sampled_users_) {
      step_users_.push_back(static_cast<std::uint32_t>(idx));
    }
    scale *= static_cast<double>(num_users) /
             static_cast<double>(config_.users_per_step);
  } else {
    for (std::uint32_t u = 0; u < num_users; ++u) step_users_.push_back(u);
  }
  const std::size_t num_step_users = step_users_.size();

  // The sum is split into one contiguous chunk of users per pool thread,
  // chunk c = [c*n/T, (c+1)*n/T). Each chunk is summed on its own and the
  // chunk sums are added in chunk order, so the gradient's bits depend on T
  // but never on scheduling.
  const std::size_t num_chunks =
      pool != nullptr
          ? std::min<std::size_t>(pool->thread_count(),
                                  std::max<std::size_t>(1, num_step_users))
          : 1;

  // Scratch is sized on first use (and on a shape change) and reused.
  items_packed_.resize(kernels::PackedItemsSize(num_items, dim));
  kernels::PackItems(item_factors.Data().data(), num_items, dim,
                     items_packed_.data());
  boundary_.resize(num_step_users);
  weights_.resize(num_step_users * sorted_targets_.size());
  if (num_chunks > 1 &&
      (chunk_sum_.rows() != num_items || chunk_sum_.cols() != dim)) {
    chunk_sum_ = Matrix(num_items, dim);
    row_touched_.assign(num_items, 0);
    touched_rows_.resize(num_items);
  }
  // Score tiles of up to kScoreTile users never straddle a chunk boundary,
  // so every user is scored by the same kernel call shape at every T.
  tiles_.clear();
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const std::size_t end = (chunk + 1) * num_step_users / num_chunks;
    for (std::size_t begin = chunk * num_step_users / num_chunks; begin < end;
         begin += kScoreTile) {
      tiles_.emplace_back(begin, std::min(begin + kScoreTile, end));
    }
  }

  // Phase 1, parallel: one pool task per tile writes its users' boundary
  // items and g'(s) weights. Fine-grained tasks let idle workers pick up a
  // late worker's share.
  auto score_tile = [this, num_items, dim](std::size_t tile) {
    ScoreTile(tile, num_items, dim);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, tiles_.size(), /*grain=*/1, score_tile);
  } else {
    for (std::size_t tile = 0; tile < tiles_.size(); ++tile) score_tile(tile);
  }

  // Phase 2, serial: accumulate the weighted user rows chunk by chunk.
  AccumulatePoisonGradient(num_chunks, gradient);
  if (scale != 1.0) {
    Scale(static_cast<float>(scale), gradient.Data());
  }
}

void FedRecAttack::ScoreTile(std::size_t tile, std::size_t num_items,
                             std::size_t dim) {
  // Per-thread scoring buffers: the gathered u_hat rows of one tile, their
  // scores against the packed catalogue, and one user's top-K list.
  static thread_local std::vector<float> gathered;
  static thread_local std::vector<float> scores;
  static thread_local std::vector<std::uint32_t> rec;
  gathered.resize(kScoreTile * dim);
  scores.resize(kScoreTile * num_items);

  const auto [begin, end] = tiles_[tile];
  for (std::size_t i = begin; i < end; ++i) {
    const auto src = u_hat_.Row(step_users_[i]);
    std::copy(src.begin(), src.end(), gathered.begin() + (i - begin) * dim);
  }
  kernels::ScoreBlockPacked(gathered.data(), end - begin, items_packed_.data(),
                            num_items, dim, scores.data(), num_items);

  const std::size_t num_targets = sorted_targets_.size();
  for (std::size_t i = begin; i < end; ++i) {
    const std::span<const float> user_scores(
        scores.data() + (i - begin) * num_items, num_items);
    const std::span<const std::uint32_t> public_items =
        PublicItems(step_users_[i]);
    // V^rec'_i: top-K of V-''_i (items without a *public* interaction).
    TopKIndicesExcludingSortedInto(user_scores, config_.rec_k, public_items,
                                   rec);
    // Boundary: the lowest-scored non-target item of the list (Eq. 15).
    boundary_[i] = kNoBoundary;
    for (std::size_t r = rec.size(); r-- > 0;) {
      if (!std::binary_search(sorted_targets_.begin(), sorted_targets_.end(),
                              rec[r])) {
        boundary_[i] = rec[r];
        break;
      }
    }
    if (boundary_[i] == kNoBoundary) continue;  // every slot already a target
    const double boundary_score = user_scores[boundary_[i]];

    float* weights = weights_.data() + i * num_targets;
    for (std::size_t t = 0; t < num_targets; ++t) {
      const std::uint32_t target = sorted_targets_[t];
      weights[t] = 0.0f;
      // Sum over v_t in V^tar with (u_i, v_t) not in D' (Eq. 15).
      if (std::binary_search(public_items.begin(), public_items.end(),
                             target)) {
        continue;
      }
      const double s =
          boundary_score - static_cast<double>(user_scores[target]);
      weights[t] = static_cast<float>(AttackGPrime(s));
    }
  }
}

// fedrec:hot
void FedRecAttack::AccumulatePoisonGradient(std::size_t num_chunks,
                                            Matrix& gradient) {
  const std::size_t num_step_users = step_users_.size();
  const std::size_t num_targets = sorted_targets_.size();
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    // Chunk 0 sums straight into the zeroed gradient (0 + x == x). Later
    // chunks sum into chunk_sum_, whose touched rows are then added to the
    // gradient and zeroed again.
    Matrix& sum = chunk == 0 ? gradient : chunk_sum_;
    std::size_t num_touched = 0;
    auto touch = [&](std::uint32_t row) {
      if (chunk == 0 || row_touched_[row] != 0) return;
      row_touched_[row] = 1;
      touched_rows_[num_touched++] = row;
    };
    const std::size_t end = (chunk + 1) * num_step_users / num_chunks;
    for (std::size_t i = chunk * num_step_users / num_chunks; i < end; ++i) {
      const std::uint32_t boundary = boundary_[i];
      if (boundary == kNoBoundary) continue;
      const auto u_vec = u_hat_.Row(step_users_[i]);
      const float* weights = weights_.data() + i * num_targets;
      for (std::size_t t = 0; t < num_targets; ++t) {
        const float w = weights[t];
        if (w == 0.0f) continue;
        const std::uint32_t target = sorted_targets_[t];
        // dL/dx_boundary = +g'(s), dL/dx_target = -g'(s); dx_ij/dv_j = u_i.
        Axpy(w, u_vec, sum.Row(boundary));
        Axpy(-w, u_vec, sum.Row(target));
        touch(boundary);
        touch(target);
      }
    }
    for (std::size_t r = 0; r < num_touched; ++r) {
      const std::uint32_t row = touched_rows_[r];
      Axpy(1.0f, chunk_sum_.Row(row), gradient.Row(row));
      Fill(chunk_sum_.Row(row), 0.0f);
      row_touched_[row] = 0;
    }
  }
}

std::vector<ClientUpdate> FedRecAttack::ProduceUpdates(
    const RoundContext& context,
    std::span<const std::uint32_t> selected_malicious) {
  const Matrix& item_factors = context.model->item_factors();
  const std::size_t dim = item_factors.cols();
  const std::size_t num_items = item_factors.rows();

  // Step 1 (Alg. 1): refresh the user-matrix approximation against the
  // current shared parameters.
  const std::size_t epochs = users_initialized_ ? config_.approx_epochs_round
                                                : config_.approx_epochs_first;
  ApproximateUsers(item_factors, epochs, context.pool);
  users_initialized_ = true;

  // Step 2: the round's poisoned gradient (Eq. 20).
  ComputePoisonGradientInto(item_factors, context.pool, last_gradient_);

  // Steps 3-12: distribute across the selected malicious clients.
  std::vector<ClientUpdate> updates;
  updates.reserve(selected_malicious.size());
  for (std::uint32_t id : selected_malicious) {
    FEDREC_CHECK_GE(id, context.num_benign_users);
    const std::size_t slot = id - context.num_benign_users;
    if (slot >= item_sets_.size()) {
      item_sets_.resize(slot + 1);
      item_set_ready_.resize(slot + 1, false);
    }
    if (!item_set_ready_[slot]) {
      // Eq. (21)-(22): V_i = V^tar  +  rows sampled without replacement with
      // probability proportional to the current ||nabla~v_j||_2.
      std::vector<std::uint32_t>& item_set = item_sets_[slot];
      item_set.assign(
          sorted_targets_.begin(),
          sorted_targets_.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(config_.kappa, sorted_targets_.size())));
      const std::size_t extra =
          config_.kappa > item_set.size() ? config_.kappa - item_set.size() : 0;
      if (extra > 0) {
        std::vector<double> weights(num_items, 0.0);
        std::size_t positive = 0;
        for (std::size_t j = 0; j < num_items; ++j) {
          if (std::binary_search(sorted_targets_.begin(), sorted_targets_.end(),
                                 static_cast<std::uint32_t>(j))) {
            continue;  // p(v_j) = 0 for targets (Eq. 22)
          }
          weights[j] = static_cast<double>(L2Norm(last_gradient_.Row(j)));
          if (weights[j] > 0.0) ++positive;
        }
        const std::size_t non_targets = num_items - sorted_targets_.size();
        const std::size_t want = std::min(extra, non_targets);
        if (positive >= want && positive > 0) {
          for (std::size_t j : rng_.WeightedSampleWithoutReplacement(weights, want)) {
            item_set.push_back(static_cast<std::uint32_t>(j));
          }
        } else {
          // Degenerate gradient (e.g. fully consumed by earlier clients):
          // fall back to uniform filler rows so the upload shape stays
          // indistinguishable from a benign client's.
          std::vector<std::uint32_t> pool_items;
          pool_items.reserve(non_targets);
          for (std::uint32_t j = 0; j < num_items; ++j) {
            if (!std::binary_search(sorted_targets_.begin(), sorted_targets_.end(),
                                    j)) {
              pool_items.push_back(j);
            }
          }
          for (std::size_t idx :
               rng_.SampleWithoutReplacement(pool_items.size(), want)) {
            item_set.push_back(pool_items[idx]);
          }
        }
        std::sort(item_set.begin(), item_set.end());
      }
      item_set_ready_[slot] = true;
    }

    // Eq. (23): restrict to V_i and clip rows to C.
    ClientUpdate update;
    update.user = id;
    update.item_gradients = SparseRowMatrix(dim);
    for (std::uint32_t item : item_sets_[slot]) {
      const auto src = last_gradient_.Row(item);
      auto dst = update.item_gradients.RowMutable(item);
      std::copy(src.begin(), src.end(), dst.begin());
      ClipL2(dst, config_.clip_norm);
    }
    // Eq. (24): subtract what this client uploads from the remainder.
    for (std::uint32_t item : item_sets_[slot]) {
      const auto uploaded = update.item_gradients.Row(item);
      auto remaining = last_gradient_.Row(item);
      for (std::size_t d = 0; d < dim; ++d) remaining[d] -= uploaded[d];
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

}  // namespace fedrec
