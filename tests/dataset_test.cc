#include "data/dataset.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedrec {
namespace {

Dataset MakeSmall() {
  // 3 users, 5 items.
  std::vector<Interaction> tuples{
      {0, 0}, {0, 2}, {0, 4}, {1, 1}, {1, 2}, {2, 3},
  };
  auto ds = Dataset::FromInteractions("small", 3, 5, std::move(tuples));
  ds.status().CheckOK();
  return std::move(ds).value();
}

TEST(DatasetTest, BasicAccessors) {
  const Dataset ds = MakeSmall();
  EXPECT_EQ(ds.name(), "small");
  EXPECT_EQ(ds.num_users(), 3u);
  EXPECT_EQ(ds.num_items(), 5u);
  EXPECT_EQ(ds.num_interactions(), 6u);
  EXPECT_EQ(ds.UserItems(0), (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(ds.UserItems(2), (std::vector<std::uint32_t>{3}));
}

TEST(DatasetTest, DuplicatesDropped) {
  std::vector<Interaction> tuples{{0, 1}, {0, 1}, {0, 1}, {1, 0}};
  auto ds = Dataset::FromInteractions("dup", 2, 2, std::move(tuples));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().num_interactions(), 2u);
  EXPECT_EQ(ds.value().UserItems(0), (std::vector<std::uint32_t>{1}));
}

TEST(DatasetTest, MatchesGlobalSortReferenceOnShuffledInput) {
  // Shuffled tuples with duplicates, and users (every odd id) with no
  // interaction at all: each V+_i must equal what one global (user, item)
  // sort plus unique yields.
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t num_users = 1 + rng.NextBounded(40);
    const std::size_t num_items = 1 + rng.NextBounded(60);
    const std::size_t even_users = (num_users + 1) / 2;
    std::vector<Interaction> tuples;
    const std::size_t draws = rng.NextBounded(500);
    for (std::size_t d = 0; d < draws; ++d) {
      const Interaction t{
          static_cast<std::uint32_t>(2 * rng.NextBounded(even_users)),
          static_cast<std::uint32_t>(rng.NextBounded(num_items))};
      tuples.push_back(t);
      if (rng.NextBounded(4) == 0) tuples.push_back(t);
    }
    for (std::size_t i = tuples.size(); i > 1; --i) {
      std::swap(tuples[i - 1], tuples[rng.NextBounded(i)]);
    }

    std::vector<Interaction> reference = tuples;
    std::sort(reference.begin(), reference.end());
    reference.erase(std::unique(reference.begin(), reference.end()),
                    reference.end());
    std::vector<std::vector<std::uint32_t>> expected(num_users);
    for (const Interaction& t : reference) expected[t.user].push_back(t.item);

    auto ds = Dataset::FromInteractions("shuffled", num_users, num_items,
                                        std::move(tuples));
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ASSERT_EQ(ds.value().num_interactions(), reference.size());
    for (std::size_t u = 0; u < num_users; ++u) {
      ASSERT_EQ(ds.value().UserItems(u), expected[u])
          << "trial " << trial << " user " << u;
    }
    EXPECT_EQ(ds.value().AllInteractions(), reference);
  }
}

TEST(DatasetTest, RejectsOutOfRangeReferences) {
  EXPECT_FALSE(Dataset::FromInteractions("bad", 2, 2, {{2, 0}}).ok());
  EXPECT_FALSE(Dataset::FromInteractions("bad", 2, 2, {{0, 2}}).ok());
  EXPECT_FALSE(Dataset::FromInteractions("bad", 0, 2, {}).ok());
  EXPECT_FALSE(Dataset::FromInteractions("bad", 2, 0, {}).ok());
}

TEST(DatasetTest, HasInteraction) {
  const Dataset ds = MakeSmall();
  EXPECT_TRUE(ds.HasInteraction(0, 2));
  EXPECT_FALSE(ds.HasInteraction(0, 1));
  EXPECT_TRUE(ds.HasInteraction(2, 3));
  EXPECT_FALSE(ds.HasInteraction(2, 0));
}

TEST(DatasetTest, ItemPopularity) {
  const Dataset ds = MakeSmall();
  const auto pop = ds.ItemPopularity();
  EXPECT_EQ(pop, (std::vector<std::size_t>{1, 1, 2, 1, 1}));
}

TEST(DatasetTest, ItemsByPopularityOrdering) {
  const Dataset ds = MakeSmall();
  const auto order = ds.ItemsByPopularity();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 2u);  // item 2 has 2 interactions
  // Ties broken by id.
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
}

TEST(DatasetTest, AverageAndSparsity) {
  const Dataset ds = MakeSmall();
  EXPECT_DOUBLE_EQ(ds.AverageInteractionsPerUser(), 2.0);
  EXPECT_DOUBLE_EQ(ds.Sparsity(), 1.0 - 6.0 / 15.0);
}

TEST(DatasetTest, AllInteractionsRoundTrip) {
  const Dataset ds = MakeSmall();
  const auto all = ds.AllInteractions();
  EXPECT_EQ(all.size(), 6u);
  auto rebuilt = Dataset::FromInteractions("re", 3, 5, all);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().num_interactions(), 6u);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(rebuilt.value().UserItems(u), ds.UserItems(u));
  }
}

TEST(LeaveOneOutTest, HoldsOutOneItemPerEligibleUser) {
  const Dataset ds = MakeSmall();
  Rng rng(1);
  const LeaveOneOutSplit split = SplitLeaveOneOut(ds, rng);
  // Users 0 and 1 have >= 2 interactions; user 2 has 1 (no test item).
  EXPECT_NE(split.test_items[0], LeaveOneOutSplit::kNoTestItem);
  EXPECT_NE(split.test_items[1], LeaveOneOutSplit::kNoTestItem);
  EXPECT_EQ(split.test_items[2], LeaveOneOutSplit::kNoTestItem);
  EXPECT_EQ(split.NumTestUsers(), 2u);

  // Train set shrinks exactly by the held-out items.
  EXPECT_EQ(split.train.num_interactions(), 4u);
  for (std::size_t u : {0u, 1u}) {
    const auto item = static_cast<std::uint32_t>(split.test_items[u]);
    EXPECT_FALSE(split.train.HasInteraction(u, item));
    EXPECT_TRUE(ds.HasInteraction(u, item));
  }
  // User 2's single interaction stays in train.
  EXPECT_TRUE(split.train.HasInteraction(2, 3));
}

TEST(LeaveOneOutTest, DeterministicPerSeed) {
  const Dataset ds = MakeSmall();
  Rng rng1(9), rng2(9);
  const auto a = SplitLeaveOneOut(ds, rng1);
  const auto b = SplitLeaveOneOut(ds, rng2);
  EXPECT_EQ(a.test_items, b.test_items);
}

TEST(LeaveOneOutTest, PreservesUserAndItemCounts) {
  const Dataset ds = MakeSmall();
  Rng rng(3);
  const auto split = SplitLeaveOneOut(ds, rng);
  EXPECT_EQ(split.train.num_users(), ds.num_users());
  EXPECT_EQ(split.train.num_items(), ds.num_items());
}

TEST(InteractionTest, OrderingAndEquality) {
  EXPECT_TRUE((Interaction{0, 5}) < (Interaction{1, 0}));
  EXPECT_TRUE((Interaction{1, 2}) < (Interaction{1, 3}));
  EXPECT_TRUE((Interaction{2, 2}) == (Interaction{2, 2}));
  EXPECT_FALSE((Interaction{2, 2}) == (Interaction{2, 3}));
}

}  // namespace
}  // namespace fedrec
