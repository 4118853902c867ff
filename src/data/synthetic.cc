#include "data/synthetic.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <memory_resource>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/matrix.h"
#include "common/stamp_set.h"
#include "common/string_util.h"
#include "common/threadpool.h"

namespace fedrec {

namespace {

/// Per-user interaction count: log-normal with mean matched to the target,
/// clamped to [2, num_items - 1] so leave-one-out and negative sampling work.
std::size_t DrawActivity(Rng& rng, const SyntheticConfig& config) {
  const double sigma = config.activity_sigma;
  const double mu = std::log(config.mean_interactions_per_user) - 0.5 * sigma * sigma;
  const double draw = rng.NextLogNormal(mu, sigma);
  const double clamped =
      std::clamp(draw, 2.0, static_cast<double>(config.num_items - 1));
  return static_cast<std::size_t>(std::llround(clamped));
}

/// Size of a user's candidate pool: pool_factor * count popular candidates,
/// at least count + 1, at most the catalogue.
std::size_t PoolTarget(std::size_t count, const SyntheticConfig& config) {
  return std::min(config.num_items,
                  std::max<std::size_t>(count + 1, count * config.pool_factor));
}

/// Rows a user contributes: the best min(count, pool) candidates, topped up
/// to two. The candidate pool always fills to PoolTarget (the uniform
/// fallback guarantees it), so this is known before the user is generated.
std::size_t RowsOf(std::size_t count, const SyntheticConfig& config) {
  return std::max<std::size_t>(std::min(count, PoolTarget(count, config)), 2);
}

/// Bytes a candidate set of `target` items may take from its arena: its
/// nodes and its one bucket array. A libstdc++ node is two words, and
/// reserve(2 * target) picks at most 1.375 * 2 * target buckets (the worst
/// case up to 200,000 items, at 4). Both are doubled for headroom and other
/// library layouts: 4 words per node, 4 * target + 16 bucket words.
std::size_t ArenaBytes(std::size_t target) {
  return (8 * target + 16) * sizeof(void*);
}

/// Popularity-proportional item draw: the first item whose CDF reaches a
/// uniform u, found by scanning forward from a guide table entry. Bin b
/// holds the first item whose CDF reaches b / kBins; u * kBins is exact, so
/// b = floor(u * kBins) satisfies b / kBins <= u and the scan ends on the
/// item std::lower_bound would return.
class PopularitySampler {
 public:
  static constexpr std::size_t kBins = 4096;

  explicit PopularitySampler(std::vector<double> cdf)
      : cdf_(std::move(cdf)), guide_(kBins) {
    for (std::size_t b = 0; b < kBins; ++b) {
      const double edge = static_cast<double>(b) / static_cast<double>(kBins);
      guide_[b] = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), edge) - cdf_.begin());
    }
  }

  std::size_t Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    std::size_t i = guide_[static_cast<std::size_t>(u * static_cast<double>(kBins))];
    while (i < cdf_.size() && cdf_[i] < u) ++i;
    return i == cdf_.size() ? cdf_.size() - 1 : i;
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

/// One user's stream after its activity draw, and where its rows go.
struct UserPlan {
  Rng rng;
  std::size_t count = 0;
  std::size_t offset = 0;
};

/// Scratch of one worker lane, allocated by the calling thread so that the
/// lane itself never touches the heap.
struct Lane {
  StampSet drawn;
  std::unique_ptr<std::byte[]> arena;
  std::size_t arena_bytes = 0;
  std::vector<std::pair<double, std::size_t>> scored;
};

/// The read-only model every user is generated from.
struct UserModel {
  const SyntheticConfig& config;
  const Matrix& user_factors;
  const Matrix& item_factors;
  const PopularitySampler& sampler;
  const std::vector<double>& log_popularity;
};

/// Draws user u's candidates and writes its RowsOf(count) rows to `out`.
// fedrec:hot — runs on the pool's workers: the rows, stamps and scores live
// in buffers the calling thread allocated, the candidate set in the lane's
// arena, so a worker never calls malloc.
void GenerateUser(const UserModel& model, std::uint32_t u, UserPlan& plan,
                  Lane& lane, Interaction* out) {
  const SyntheticConfig& config = model.config;
  Rng& rng = plan.rng;
  const std::size_t count = plan.count;

  // Candidate pool: popularity-biased draws, deduplicated. The set's
  // iteration order fixes the order of the Gumbel draws below.
  const std::size_t pool_target = PoolTarget(count, config);
  std::pmr::monotonic_buffer_resource arena(lane.arena.get(), lane.arena_bytes,
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_set<std::size_t> pool(&arena);
  pool.reserve(pool_target * 2);  // fedrec:alloc-ok — buckets from the arena
  const std::uint32_t mark = lane.drawn.NewMark();
  auto add = [&](std::size_t item) {
    // Inserting an item already in the set leaves the table as it was.
    if (lane.drawn.Has(item, mark)) return;
    lane.drawn.Set(item, mark);
    pool.insert(item);  // fedrec:alloc-ok — the node comes from the arena
  };
  std::size_t attempts = 0;
  const std::size_t max_attempts = pool_target * 20 + 64;
  while (pool.size() < pool_target && attempts < max_attempts) {
    add(model.sampler.Draw(rng));
    ++attempts;
  }
  // Fallback for tiny item spaces: fill with uniform draws.
  while (pool.size() < std::min(config.num_items, pool_target)) {
    add(static_cast<std::size_t>(rng.NextBounded(config.num_items)));
  }

  // Score candidates: latent preference + popularity mixture + Gumbel noise
  // (so selection is stochastic but favours structure).
  std::size_t scored = 0;
  const auto u_vec = model.user_factors.Row(u);
  for (std::size_t item : pool) {
    const double pref = Dot(u_vec, model.item_factors.Row(item));
    const double pop = model.log_popularity[item];
    double g = rng.NextDouble();
    if (g <= 0.0) g = 0x1.0p-53;
    const double gumbel = -std::log(-std::log(g));
    const double score = (1.0 - config.popularity_mix) * 4.0 * pref +
                         config.popularity_mix * pop + 0.5 * gumbel;
    lane.scored[scored++] = {score, item};
  }
  const auto first = lane.scored.begin();
  const std::size_t take = std::min(count, scored);
  std::partial_sort(first, first + static_cast<std::ptrdiff_t>(take),
                    first + static_cast<std::ptrdiff_t>(scored),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t idx = 0; idx < take; ++idx) {
    out[idx] = {u, static_cast<std::uint32_t>(lane.scored[idx].second)};
  }
  // Guarantee at least two interactions per user.
  std::size_t have = take;
  while (have < 2) {
    out[have++] = {u, static_cast<std::uint32_t>(rng.NextBounded(config.num_items))};
  }
  FEDREC_DCHECK(have == RowsOf(count, config));
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticConfig& config, ThreadPool* pool) {
  FEDREC_CHECK_GT(config.num_users, 0u);
  FEDREC_CHECK_GT(config.num_items, 1u);
  FEDREC_CHECK_GT(config.mean_interactions_per_user, 0.0);
  FEDREC_CHECK_GE(config.popularity_mix, 0.0);
  FEDREC_CHECK_LE(config.popularity_mix, 1.0);

  Rng rng(config.seed);

  // Latent ground-truth factors giving the data collaborative structure.
  Matrix user_factors(config.num_users, config.latent_dim);
  Matrix item_factors(config.num_items, config.latent_dim);
  const float factor_scale = 1.0f / std::sqrt(static_cast<float>(config.latent_dim));
  user_factors.FillGaussian(rng, 0.0f, factor_scale);
  item_factors.FillGaussian(rng, 0.0f, factor_scale);

  // Long-tail popularity: item j's base weight follows a Zipf law over a
  // random permutation of item ids (so popularity is independent of id order).
  std::vector<std::size_t> popularity_rank(config.num_items);
  for (std::size_t i = 0; i < config.num_items; ++i) popularity_rank[i] = i;
  rng.Shuffle(popularity_rank);
  std::vector<double> popularity_weight(config.num_items);
  std::vector<double> log_popularity(config.num_items);
  for (std::size_t i = 0; i < config.num_items; ++i) {
    const double rank = static_cast<double>(popularity_rank[i]) + 1.0;
    popularity_weight[i] = 1.0 / std::pow(rank, config.popularity_exponent);
    log_popularity[i] = std::log(popularity_weight[i] + 1e-12);
  }
  // CDF for popularity-proportional candidate sampling.
  std::vector<double> cdf(config.num_items);
  double acc = 0.0;
  for (std::size_t i = 0; i < config.num_items; ++i) {
    acc += popularity_weight[i];
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  const PopularitySampler sampler(std::move(cdf));

  // Serial pass, in user order: fork each user's stream from the root stream
  // and draw its activity, which sizes its slice of the interaction array.
  std::vector<UserPlan> plans(config.num_users);
  std::size_t total_rows = 0;
  std::size_t max_target = 0;
  for (std::uint32_t u = 0; u < config.num_users; ++u) {
    UserPlan& plan = plans[u];
    plan.rng = rng.Fork(u);
    plan.count = DrawActivity(plan.rng, config);
    plan.offset = total_rows;
    total_rows += RowsOf(plan.count, config);
    max_target = std::max(max_target, PoolTarget(plan.count, config));
  }
  std::vector<Interaction> interactions(total_rows);

  // Heaviest users first, so the few that run to the attempt cap start early
  // instead of finishing last on one worker.
  std::vector<std::uint32_t> order(config.num_users);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return plans[a].count > plans[b].count;
  });

  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && DefaultThreadCount() > 2) {
    local_pool = std::make_unique<ThreadPool>(DefaultThreadCount() - 1);
    pool = local_pool.get();
  }
  // One lane per thread that can run a chunk: the workers and the caller.
  // A pool of at most one worker runs its loop inline, so it gets one lane.
  const std::size_t lane_count =
      pool != nullptr && pool->thread_count() > 1 ? pool->thread_count() + 1 : 1;
  std::vector<Lane> lanes(lane_count);
  for (Lane& lane : lanes) {
    lane.drawn.Grow(config.num_items);
    lane.arena_bytes = ArenaBytes(max_target);
    lane.arena = std::make_unique_for_overwrite<std::byte[]>(lane.arena_bytes);
    lane.scored.resize(max_target);
  }

  const UserModel model{config, user_factors, item_factors, sampler,
                        log_popularity};
  std::atomic<std::size_t> next{0};
  // fedrec:hot — each lane claims users until none is left.
  auto run_lane = [&](std::size_t l) {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < order.size(); k = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::uint32_t u = order[k];
      GenerateUser(model, u, plans[u], lanes[l],
                   interactions.data() + plans[u].offset);
    }
  };
  ParallelFor(pool, lane_count, run_lane);

  Result<Dataset> ds = Dataset::FromInteractions(config.name, config.num_users,
                                                 config.num_items,
                                                 std::move(interactions));
  ds.status().CheckOK();
  return std::move(ds).value();
}

SyntheticConfig MovieLens100KConfig(std::uint64_t seed) {
  SyntheticConfig config;
  config.name = "ml-100k";
  config.num_users = 943;
  config.num_items = 1682;
  config.mean_interactions_per_user = 106.0;
  config.activity_sigma = 0.75;
  config.popularity_exponent = 0.9;
  config.seed = seed;
  return config;
}

SyntheticConfig MovieLens1MConfig(std::uint64_t seed) {
  SyntheticConfig config;
  config.name = "ml-1m";
  config.num_users = 6040;
  config.num_items = 3706;
  config.mean_interactions_per_user = 166.0;
  config.activity_sigma = 0.8;
  config.popularity_exponent = 0.95;
  config.seed = seed;
  return config;
}

SyntheticConfig Steam200KConfig(std::uint64_t seed) {
  SyntheticConfig config;
  config.name = "steam-200k";
  config.num_users = 3753;
  config.num_items = 5134;
  config.mean_interactions_per_user = 31.0;
  config.activity_sigma = 0.95;
  config.popularity_exponent = 1.05;
  config.seed = seed;
  return config;
}

Result<Dataset> GenerateByName(const std::string& preset, std::uint64_t seed,
                               double scale, ThreadPool* pool) {
  if (scale <= 0.0 || scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1], got " +
                                   FormatDouble(scale, 3));
  }
  SyntheticConfig config;
  const std::string lowered = ToLower(preset);
  if (lowered == "ml-100k" || lowered == "movielens-100k") {
    config = MovieLens100KConfig(seed);
  } else if (lowered == "ml-1m" || lowered == "movielens-1m") {
    config = MovieLens1MConfig(seed);
  } else if (lowered == "steam-200k" || lowered == "steam") {
    config = Steam200KConfig(seed);
  } else {
    return Status::NotFound("unknown dataset preset: " + preset);
  }
  if (scale < 1.0) {
    config.num_users =
        std::max<std::size_t>(8, static_cast<std::size_t>(
                                     static_cast<double>(config.num_users) * scale));
    config.num_items =
        std::max<std::size_t>(16, static_cast<std::size_t>(
                                      static_cast<double>(config.num_items) * scale));
    // Preserve the dataset's sparsity: with fewer items, per-user activity
    // must shrink proportionally, or every item becomes several times denser
    // than in the original and the training dynamics (e.g. how often a cold
    // item is drawn as a BPR negative) stop being representative.
    config.mean_interactions_per_user =
        std::max(6.0, config.mean_interactions_per_user * scale);
    // Two appends, not `"@" + Format...`: GCC 12's -Wrestrict misfires on
    // operator+(const char*, string&&) at -O2 (GCC PR105329).
    config.name += '@';
    config.name += FormatDouble(scale, 2);
  }
  return GenerateSynthetic(config, pool);
}

}  // namespace fedrec
