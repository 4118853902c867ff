#ifndef FEDREC_COMMON_RNG_H_
#define FEDREC_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

/// \file
/// Deterministic pseudo-random generation.
///
/// Every stochastic component in the library (data synthesis, negative sampling,
/// client selection, DP noise, the attack's item sampler of Eq. (22)) draws from
/// `fedrec::Rng` so that a run is fully reproducible from a single seed on any
/// platform. The engine is xoshiro256** seeded via SplitMix64; all distributions
/// are implemented here rather than with std::<distribution> (whose outputs vary
/// across standard libraries).

namespace fedrec {

/// SplitMix64 step; used for seeding and cheap stateless hashing.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Serializable Rng state (see Rng::Snapshot / Rng::Restore): the xoshiro
/// words plus the Marsaglia-polar spare, which is itself stream state — a
/// restore that dropped it would desynchronize the next Gaussian draw.
struct RngSnapshot {
  std::uint64_t state[4] = {0, 0, 0, 0};
  double cached_gaussian = 0.0;
  bool has_cached_gaussian = false;
};

/// Deterministic pseudo-random generator (xoshiro256**).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose whole stream is a function of `seed`.
  explicit Rng(std::uint64_t seed = 0x5DEECE66DULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit draw (UniformRandomBitGenerator interface).
  std::uint64_t operator()() { return Next(); }
  std::uint64_t Next();

  /// Derives an independent child generator; stream `index` of this seed.
  /// Used to give each client / worker its own reproducible stream.
  Rng Fork(std::uint64_t index);

  /// Full generator state ("rng cursor") for checkpointing. Restore()
  /// continues the stream exactly where Snapshot() left it, so a restored
  /// run replays the uninterrupted one bit for bit.
  RngSnapshot Snapshot() const;
  void Restore(const RngSnapshot& snapshot);

  /// Uniform double in [0, 1).
  double NextDouble();
  /// Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }
  /// Uniform integer in [0, bound), bound > 0, without modulo bias.
  std::uint64_t NextBounded(std::uint64_t bound);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);
  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);
  /// Standard normal via the Marsaglia polar method.
  double NextGaussian();
  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }
  /// Log-normal: exp(N(mu, sigma^2)).
  double NextLogNormal(double mu, double sigma);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Draws `count` distinct values uniformly from [0, population) in O(count)
  /// expected time (Floyd's algorithm). Order of the result is unspecified.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t population,
                                                    std::size_t count);

  /// Buffer-recycling form of SampleWithoutReplacement: clears and refills
  /// `out` (capacity retained) with the same draws in the same order. The
  /// chosen set is a per-thread stamp array kept at its high-water population,
  /// so a warm caller allocates nothing.
  void SampleWithoutReplacementInto(std::size_t population, std::size_t count,
                                    std::vector<std::size_t>& out);

  /// Draws `count` distinct indices with probability proportional to
  /// `weights[i]` (weights >= 0, at least `count` strictly positive entries
  /// required). Implements Efraimidis-Spirakis exponential keys; this is the
  /// sampler behind Eq. (22) of the paper.
  std::vector<std::size_t> WeightedSampleWithoutReplacement(
      const std::vector<double>& weights, std::size_t count);

  /// One index draw with probability proportional to `weights[i]`.
  std::size_t WeightedIndex(const std::vector<double>& weights);

 private:
  std::uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Zipf sampler over {0, 1, ..., n-1} with P(i) proportional to 1/(i+1)^s.
/// Precomputes the CDF; draws in O(log n). Models long-tail item popularity.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);

  std::size_t operator()(Rng& rng) const;

  std::size_t size() const { return cdf_.size(); }
  double exponent() const { return exponent_; }
  /// Probability mass of rank i.
  double pmf(std::size_t i) const;

 private:
  double exponent_;
  std::vector<double> cdf_;
};

}  // namespace fedrec

#endif  // FEDREC_COMMON_RNG_H_
