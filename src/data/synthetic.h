#ifndef FEDREC_DATA_SYNTHETIC_H_
#define FEDREC_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "data/dataset.h"

/// \file
/// Synthetic implicit-feedback dataset generation.
///
/// Substitution (documented in DESIGN.md §4): the paper evaluates on
/// MovieLens-100K, MovieLens-1M and Steam-200K, which are not available in this
/// offline environment. The generator below produces datasets with the same
/// shape: exact user/item counts from Table II, matched expected interaction
/// volume, log-normal per-user activity, Zipf long-tail item popularity, and —
/// crucially — learnable collaborative structure from a latent-factor
/// preference model, so that matrix factorization actually converges and
/// attacks face a realistic trained model.
///
/// The dataset is a function of the config alone, bit for bit, whatever the
/// pool. The root stream first draws the latent factors and the popularity
/// permutation, then forks one stream per user in user order; each user's
/// activity is its stream's first draw, so the serial pass also fixes every
/// user's slice of one flat interaction array. Users then run on the pool,
/// heaviest first, each on its own stream and writing only its own slice.
/// A candidate draw is an exact `lower_bound` over the popularity CDF found
/// through a 4096-bin guide table: bin b holds the first item whose CDF
/// reaches b / 4096, and since u * 4096 is exact for a double u, the scan
/// from bin floor(u * 4096) ends on the same item a binary search would.
/// A user's candidate set is a std::unordered_set whose iteration order fixes
/// the order of the Gumbel draws; a per-worker stamp array skips inserts of
/// an item already drawn (a no-op for the table), and the set's nodes and
/// buckets come from a per-worker arena the caller allocates, so the same
/// table is built in the same order and a worker never calls malloc.

namespace fedrec {

class ThreadPool;

/// Knobs of the synthetic generator.
struct SyntheticConfig {
  std::string name = "synthetic";
  std::size_t num_users = 500;
  std::size_t num_items = 800;
  /// Target mean interactions per user (Table II: 106 / 166 / 31).
  double mean_interactions_per_user = 40.0;
  /// Log-normal sigma of per-user activity (heavier tail -> larger sigma).
  double activity_sigma = 0.6;
  /// Zipf exponent of item popularity (~1 reproduces recommendation long tails).
  double popularity_exponent = 1.0;
  /// Dimension of the latent preference model generating the structure.
  std::size_t latent_dim = 16;
  /// Relative strength of popularity vs personal preference when a user picks
  /// items (0 = pure preference, 1 = pure popularity).
  double popularity_mix = 0.55;
  /// Candidate-pool multiplier: each user scores pool_factor * count popular
  /// candidates and keeps the best `count` by latent preference.
  std::size_t pool_factor = 6;
  std::uint64_t seed = 42;
};

/// Generates a dataset according to `config`. Every user receives at least two
/// interactions so the leave-one-out split always has a test item. Users are
/// generated on `pool`; with no pool, on a local pool of one worker fewer than
/// the hardware threads (the calling thread works too). The result does not
/// depend on the pool or its size.
Dataset GenerateSynthetic(const SyntheticConfig& config,
                          ThreadPool* pool = nullptr);

/// Named presets calibrated to Table II of the paper.
SyntheticConfig MovieLens100KConfig(std::uint64_t seed = 42);
SyntheticConfig MovieLens1MConfig(std::uint64_t seed = 42);
SyntheticConfig Steam200KConfig(std::uint64_t seed = 42);

/// Convenience: generate by preset name "ml-100k" | "ml-1m" | "steam-200k",
/// optionally scaled down (scale in (0,1] multiplies users/items/volume) for
/// quick benchmark runs. `pool` is passed on to GenerateSynthetic.
[[nodiscard]] Result<Dataset> GenerateByName(const std::string& preset,
                                             std::uint64_t seed,
                                             double scale = 1.0,
                                             ThreadPool* pool = nullptr);

}  // namespace fedrec

#endif  // FEDREC_DATA_SYNTHETIC_H_
