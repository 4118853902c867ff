#include "data/dataset.h"

#include <algorithm>
#include <numeric>

namespace fedrec {

Result<Dataset> Dataset::FromInteractions(std::string name, std::size_t num_users,
                                          std::size_t num_items,
                                          std::vector<Interaction> interactions) {
  if (num_users == 0 || num_items == 0) {
    return Status::InvalidArgument("dataset must have at least one user and item");
  }
  for (const Interaction& t : interactions) {
    if (t.user >= num_users) {
      return Status::InvalidArgument("interaction references user " +
                                     std::to_string(t.user) + " >= num_users");
    }
    if (t.item >= num_items) {
      return Status::InvalidArgument("interaction references item " +
                                     std::to_string(t.item) + " >= num_items");
    }
  }
  Dataset ds;
  ds.name_ = std::move(name);
  ds.num_items_ = num_items;
  // Bucket by user into exactly reserved lists, then sort and deduplicate
  // each list on its own: the same V+_i a global (user, item) sort yields,
  // at per-user rather than whole-dataset sort cost.
  std::vector<std::size_t> counts(num_users, 0);
  for (const Interaction& t : interactions) ++counts[t.user];
  ds.user_items_.resize(num_users);
  for (std::size_t u = 0; u < num_users; ++u) {
    ds.user_items_[u].reserve(counts[u]);
  }
  for (const Interaction& t : interactions) {
    ds.user_items_[t.user].push_back(t.item);
  }
  for (std::vector<std::uint32_t>& items : ds.user_items_) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    ds.num_interactions_ += items.size();
  }
  return ds;
}

bool Dataset::HasInteraction(std::size_t user, std::uint32_t item) const {
  FEDREC_CHECK_LT(user, user_items_.size());
  const auto& items = user_items_[user];
  return std::binary_search(items.begin(), items.end(), item);
}

std::vector<std::size_t> Dataset::ItemPopularity() const {
  std::vector<std::size_t> pop(num_items_, 0);
  for (const auto& items : user_items_) {
    for (std::uint32_t item : items) ++pop[item];
  }
  return pop;
}

std::vector<std::uint32_t> Dataset::ItemsByPopularity() const {
  const std::vector<std::size_t> pop = ItemPopularity();
  std::vector<std::uint32_t> order(num_items_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&pop](std::uint32_t a, std::uint32_t b) {
                     return pop[a] != pop[b] ? pop[a] > pop[b] : a < b;
                   });
  return order;
}

double Dataset::AverageInteractionsPerUser() const {
  if (user_items_.empty()) return 0.0;
  return static_cast<double>(num_interactions_) /
         static_cast<double>(user_items_.size());
}

double Dataset::Sparsity() const {
  const double cells =
      static_cast<double>(num_users()) * static_cast<double>(num_items_);
  if (cells == 0.0) return 1.0;
  return 1.0 - static_cast<double>(num_interactions_) / cells;
}

std::vector<Interaction> Dataset::AllInteractions() const {
  std::vector<Interaction> all;
  all.reserve(num_interactions_);
  for (std::uint32_t u = 0; u < user_items_.size(); ++u) {
    for (std::uint32_t item : user_items_[u]) {
      all.push_back({u, item});
    }
  }
  return all;
}

std::size_t LeaveOneOutSplit::NumTestUsers() const {
  std::size_t count = 0;
  for (std::int64_t item : test_items) {
    if (item != kNoTestItem) ++count;
  }
  return count;
}

LeaveOneOutSplit SplitLeaveOneOut(const Dataset& dataset, Rng& rng) {
  LeaveOneOutSplit split;
  split.test_items.assign(dataset.num_users(),
                          LeaveOneOutSplit::kNoTestItem);
  std::vector<Interaction> train_tuples;
  train_tuples.reserve(dataset.num_interactions());
  for (std::uint32_t u = 0; u < dataset.num_users(); ++u) {
    const auto& items = dataset.UserItems(u);
    std::size_t held_out = items.size();  // sentinel: none
    if (items.size() >= 2) {
      held_out = static_cast<std::size_t>(rng.NextBounded(items.size()));
      split.test_items[u] = items[held_out];
    }
    for (std::size_t idx = 0; idx < items.size(); ++idx) {
      if (idx == held_out) continue;
      train_tuples.push_back({u, items[idx]});
    }
  }
  Result<Dataset> train = Dataset::FromInteractions(
      dataset.name() + "-train", dataset.num_users(), dataset.num_items(),
      std::move(train_tuples));
  train.status().CheckOK();
  split.train = std::move(train).value();
  return split;
}

}  // namespace fedrec
