#include "data/synthetic.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "data/stats.h"

/// While g_watch is set, counts operator new calls made on any thread but
/// the one that marked itself as the caller.
std::atomic<bool> g_watch{false};
std::atomic<std::uint64_t> g_off_caller_news{0};
thread_local bool t_is_caller = false;

void CountNew() {
  if (g_watch.load(std::memory_order_relaxed) && !t_is_caller) {
    g_off_caller_news.fetch_add(1, std::memory_order_relaxed);
  }
}

// Out of line, so the compiler does not pair the calls away. The aligned
// form is what std::pmr::new_delete_resource calls, the nothrow form what
// std::stable_sort's buffer uses; every form a plain delete may free is
// replaced, so the sanitizers see matching malloc/free pairs.
[[gnu::noinline]] void* operator new(std::size_t size) {
  CountNew();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  CountNew();
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  CountNew();
  void* p = nullptr;
  if (posix_memalign(&p, std::max(sizeof(void*), static_cast<std::size_t>(align)),
                     size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace fedrec {
namespace {

TEST(SyntheticTest, RespectsConfiguredShape) {
  SyntheticConfig config;
  config.num_users = 200;
  config.num_items = 300;
  config.mean_interactions_per_user = 20.0;
  config.seed = 1;
  const Dataset ds = GenerateSynthetic(config);
  EXPECT_EQ(ds.num_users(), 200u);
  EXPECT_EQ(ds.num_items(), 300u);
  // Mean activity within 25% of target.
  EXPECT_NEAR(ds.AverageInteractionsPerUser(), 20.0, 5.0);
}

TEST(SyntheticTest, EveryUserHasAtLeastTwoInteractions) {
  SyntheticConfig config;
  config.num_users = 150;
  config.num_items = 100;
  config.mean_interactions_per_user = 4.0;
  config.activity_sigma = 1.2;  // heavy tail -> many low-activity draws
  config.seed = 2;
  const Dataset ds = GenerateSynthetic(config);
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    EXPECT_GE(ds.UserItems(u).size(), 2u) << "user " << u;
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 80;
  config.seed = 7;
  const Dataset a = GenerateSynthetic(config);
  const Dataset b = GenerateSynthetic(config);
  EXPECT_EQ(a.num_interactions(), b.num_interactions());
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.UserItems(u), b.UserItems(u));
  }
  config.seed = 8;
  const Dataset c = GenerateSynthetic(config);
  bool differs = c.num_interactions() != a.num_interactions();
  for (std::size_t u = 0; !differs && u < a.num_users(); ++u) {
    differs = a.UserItems(u) != c.UserItems(u);
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticTest, PopularityIsLongTailed) {
  SyntheticConfig config;
  config.num_users = 400;
  config.num_items = 600;
  config.mean_interactions_per_user = 30.0;
  config.seed = 3;
  const Dataset ds = GenerateSynthetic(config);
  const DatasetStats stats = ComputeStats(ds);
  // Zipf-ish data concentrates a large share on the head.
  EXPECT_GT(stats.top10_percent_share, 0.3);
  EXPECT_GT(stats.gini_popularity, 0.4);
}

TEST(SyntheticTest, PresetsMatchTableII) {
  const SyntheticConfig ml100k = MovieLens100KConfig();
  EXPECT_EQ(ml100k.num_users, 943u);
  EXPECT_EQ(ml100k.num_items, 1682u);
  EXPECT_DOUBLE_EQ(ml100k.mean_interactions_per_user, 106.0);

  const SyntheticConfig ml1m = MovieLens1MConfig();
  EXPECT_EQ(ml1m.num_users, 6040u);
  EXPECT_EQ(ml1m.num_items, 3706u);

  const SyntheticConfig steam = Steam200KConfig();
  EXPECT_EQ(steam.num_users, 3753u);
  EXPECT_EQ(steam.num_items, 5134u);
  EXPECT_DOUBLE_EQ(steam.mean_interactions_per_user, 31.0);
}

TEST(SyntheticTest, GenerateByNameKnownPresets) {
  for (const char* name : {"ml-100k", "ml-1m", "steam-200k"}) {
    auto ds = GenerateByName(name, /*seed=*/5, /*scale=*/0.05);
    ASSERT_TRUE(ds.ok()) << name;
    EXPECT_GT(ds.value().num_users(), 0u);
  }
}

TEST(SyntheticTest, GenerateByNameScaleShrinks) {
  auto full = GenerateByName("ml-100k", 5, 1.0);
  auto half = GenerateByName("ml-100k", 5, 0.5);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(full.value().num_users(), 943u);
  EXPECT_NEAR(static_cast<double>(half.value().num_users()), 471.5, 1.0);
  EXPECT_NE(half.value().name().find("@"), std::string::npos);
}

TEST(SyntheticTest, GenerateByNameRejectsBadInput) {
  EXPECT_FALSE(GenerateByName("no-such-dataset", 1).ok());
  EXPECT_FALSE(GenerateByName("ml-100k", 1, 0.0).ok());
  EXPECT_FALSE(GenerateByName("ml-100k", 1, 1.5).ok());
}

TEST(SyntheticTest, PopularHeadDominatesMedianItem) {
  SyntheticConfig config;
  config.num_users = 300;
  config.num_items = 400;
  config.mean_interactions_per_user = 25.0;
  config.seed = 11;
  const Dataset ds = GenerateSynthetic(config);
  const auto pop = ds.ItemPopularity();
  std::vector<std::size_t> sorted = pop;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back(), 4 * std::max<std::size_t>(1, sorted[sorted.size() / 2]));
}

/// 64-bit FNV-1a over every (user, item) row in user order, little-endian.
std::uint64_t InteractionDigest(const Dataset& ds) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (std::uint32_t item : ds.UserItems(u)) {
      mix(static_cast<std::uint32_t>(u));
      mix(item);
    }
  }
  return hash;
}

/// A 16-item catalogue whose popularity falls off so steeply (exponent 8:
/// the 10th item carries ~1e-8 of the mass) that no user fills its
/// candidate pool within the 20x attempt cap, so every user also takes the
/// uniform fallback.
SyntheticConfig CappedCatalogueConfig() {
  SyntheticConfig config;
  config.name = "tiny";
  config.num_users = 40;
  config.num_items = 16;
  config.mean_interactions_per_user = 12.0;
  config.popularity_exponent = 8.0;
  config.seed = 42;
  return config;
}

struct FrozenDigest {
  std::string preset;  ///< GenerateByName preset; empty = CappedCatalogueConfig
  double scale;
  std::uint64_t digest;
};

/// Recorded from the serial single-stream generator the parallel one
/// replaced (seed 42); the dataset must not depend on who generates it.
const FrozenDigest kFrozenDigests[] = {
    {"ml-100k", 1.0, 0x170e532b37b037ccULL},
    {"ml-1m", 1.0, 0x14076824fc146f10ULL},
    {"steam-200k", 1.0, 0x2ec3d0d52b914bc2ULL},
    {"ml-1m", 0.05, 0xfc887d7a65ec93d2ULL},
    {"", 1.0, 0xd9d24125437881a8ULL},
};

/// Generates every kFrozenDigests entry whose scale is (full_scale ? 1 : < 1,
/// or the capped catalogue) with no pool (GenerateSynthetic builds its own)
/// and on pools of 1 to 8 workers; a 1-worker pool runs inline, so it is the
/// serial path.
void ExpectFrozenDigestsOnEveryPool(bool full_scale) {
  for (const std::size_t workers : {0, 1, 2, 3, 4, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    for (const FrozenDigest& frozen : kFrozenDigests) {
      if (full_scale != (!frozen.preset.empty() && frozen.scale == 1.0)) continue;
      Dataset ds;
      if (frozen.preset.empty()) {
        ds = GenerateSynthetic(CappedCatalogueConfig(), pool.get());
      } else {
        Result<Dataset> generated =
            GenerateByName(frozen.preset, 42, frozen.scale, pool.get());
        ASSERT_TRUE(generated.ok()) << frozen.preset;
        ds = std::move(generated).value();
      }
      EXPECT_EQ(InteractionDigest(ds), frozen.digest)
          << (frozen.preset.empty() ? "capped catalogue" : frozen.preset)
          << " scale " << frozen.scale << ", workers " << workers;
    }
  }
}

TEST(SyntheticTest, PaperPresetsMatchFrozenDigestsOnEveryPool) {
  ExpectFrozenDigestsOnEveryPool(/*full_scale=*/true);
}

TEST(SyntheticTest, SmallConfigsMatchFrozenDigestsOnEveryPool) {
  ExpectFrozenDigestsOnEveryPool(/*full_scale=*/false);
}

TEST(SyntheticTest, WorkersAllocateNothing) {
  ThreadPool pool(3);
  t_is_caller = true;
  g_watch.store(true);
  // The counter sees an allocation on another thread.
  std::thread([] { ::operator delete(::operator new(8)); }).join();
  ASSERT_EQ(g_off_caller_news.exchange(0), 1u);
  Result<Dataset> ds = GenerateByName("ml-100k", 42, 1.0, &pool);
  g_watch.store(false);
  t_is_caller = false;
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(g_off_caller_news.load(), 0u);
  EXPECT_EQ(InteractionDigest(ds.value()), kFrozenDigests[0].digest);
}

TEST(SyntheticTest, CappedCatalogueReachesTheUniformFill) {
  const Dataset ds = GenerateSynthetic(CappedCatalogueConfig());
  std::size_t full = 0;
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    EXPECT_GE(ds.UserItems(u).size(), 2u) << "user " << u;
    if (ds.UserItems(u).size() == ds.num_items() - 1) ++full;
  }
  // The clamp at num_items - 1 is reached, so some pools held the whole
  // catalogue, which popularity draws alone cannot cover.
  EXPECT_GT(full, 0u);
}

}  // namespace
}  // namespace fedrec
