#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/stamp_set.h"

namespace fedrec {

namespace {

inline std::uint64_t RotL(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro256** must not be seeded with all zeros; SplitMix64 expansion
  // guarantees a well-mixed non-degenerate state for any seed.
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

RngSnapshot Rng::Snapshot() const {
  RngSnapshot snapshot;
  for (std::size_t i = 0; i < 4; ++i) snapshot.state[i] = state_[i];
  snapshot.cached_gaussian = cached_gaussian_;
  snapshot.has_cached_gaussian = has_cached_gaussian_;
  return snapshot;
}

void Rng::Restore(const RngSnapshot& snapshot) {
  for (std::size_t i = 0; i < 4; ++i) state_[i] = snapshot.state[i];
  cached_gaussian_ = snapshot.cached_gaussian;
  has_cached_gaussian_ = snapshot.has_cached_gaussian;
}

Rng Rng::Fork(std::uint64_t index) {
  // Mix the child index into a fresh seed drawn from this stream so children
  // with different indices (or from different parents) are independent.
  std::uint64_t mix = Next() ^ (0x9E3779B97F4A7C15ULL * (index + 1));
  return Rng(mix);
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  FEDREC_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias: r is rejected iff it is below
  // 2^64 mod bound. That threshold is below bound, so it only needs
  // computing (one division) for the rare r < bound.
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= bound || r >= (~bound + 1) % bound) return r % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  FEDREC_CHECK_LE(lo, hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(Next());  // full 64-bit range
  return lo + static_cast<std::int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method: two independent normals per acceptance.
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t population,
                                                       std::size_t count) {
  std::vector<std::size_t> result;
  SampleWithoutReplacementInto(population, count, result);
  return result;
}

void Rng::SampleWithoutReplacementInto(std::size_t population,
                                       std::size_t count,
                                       std::vector<std::size_t>& out) {
  FEDREC_CHECK_LE(count, population);
  // Floyd's algorithm: expected O(count) draws into a fresh chosen set.
  static thread_local StampSet chosen;
  chosen.Grow(population);
  const std::uint32_t mark = chosen.NewMark();
  out.clear();
  out.reserve(count);
  for (std::size_t j = population - count; j < population; ++j) {
    const std::size_t t = static_cast<std::size_t>(NextBounded(j + 1));
    const std::size_t pick = chosen.Has(t, mark) ? j : t;
    chosen.Set(pick, mark);
    out.push_back(pick);
  }
}

std::vector<std::size_t> Rng::WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, std::size_t count) {
  std::size_t positive = 0;
  for (double w : weights) {
    FEDREC_CHECK_GE(w, 0.0) << "negative sampling weight";
    if (w > 0.0) ++positive;
  }
  FEDREC_CHECK_LE(count, positive)
      << "cannot draw " << count << " items from " << positive
      << " positive-weight entries";

  // Efraimidis-Spirakis: key_i = u^{1/w_i}; the `count` largest keys form an
  // exact weighted sample without replacement. Equivalent (and numerically
  // safer) formulation: key_i = -Exp(1)/w_i, take the largest.
  std::vector<std::pair<double, std::size_t>> keys;
  keys.reserve(positive);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    double u = NextDouble();
    // Guard log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    const double key = -(-std::log(u)) / weights[i];
    keys.emplace_back(key, i);
  }
  std::partial_sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(count),
                    keys.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) result.push_back(keys[i].second);
  return result;
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    FEDREC_CHECK_GE(w, 0.0);
    total += w;
  }
  FEDREC_CHECK_GT(total, 0.0) << "all sampling weights are zero";
  double x = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  // Floating-point slack: fall back to the last positive-weight index.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent)
    : exponent_(exponent) {
  FEDREC_CHECK_GT(n, 0u);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;
}

std::size_t ZipfDistribution::operator()(Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfDistribution::pmf(std::size_t i) const {
  FEDREC_CHECK_LT(i, cdf_.size());
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

}  // namespace fedrec
