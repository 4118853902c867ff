/// Micro-benchmarks (google-benchmark) of the hot kernels behind the
/// simulation and the attack: the pool's dispatch, negative resampling, the benign client round,
/// full-catalog scoring, top-K selection, the attack's user approximation
/// (Eq. 19) and poisoned-gradient computation, the aggregation rules and the
/// wire checksum.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "attack/fedrecattack.h"
#include "common/kernels.h"
#include "common/math.h"
#include "common/threadpool.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/aggregator.h"
#include "fed/client.h"
#include "model/bpr.h"
#include "model/topk.h"
#include "shard/wire.h"

namespace fedrec {
namespace {

void BM_Dot(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(dim), b(dim);
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(128);

void BM_DotScalar(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(dim), b(dim);
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::ScalarDot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotScalar)->Arg(32)->Arg(128);

/// Baseline for the tentpole comparison: a block of users scored with one
/// scalar ascending-order dot per (user, item) pair — the shape of the loop
/// that used to live in the evaluator and the attack.
void BM_ScoreBlockScalarDot(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  Rng rng(2);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> scores(kUsers * items);
  for (auto _ : state) {
    kernels::ScalarScoreBlock(U.Data().data(), kUsers, V.Data().data(), items,
                              kDim, scores.data(), items);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items * kUsers));
}
BENCHMARK(BM_ScoreBlockScalarDot)->Arg(1682)->Arg(3706);

/// The vectorized register-tiled batch-scoring kernel on the identical
/// workload. The acceptance bar for this PR is >= 3x over
/// BM_ScoreBlockScalarDot in items_per_second.
void BM_ScoreBlock(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  Rng rng(2);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> scores(kUsers * items);
  for (auto _ : state) {
    kernels::ScoreBlock(U.Data().data(), kUsers, V.Data().data(), items, kDim,
                        scores.data(), items);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items * kUsers));
}
BENCHMARK(BM_ScoreBlock)->Arg(1682)->Arg(3706);

/// The packed-panel scoring kernel (the evaluator/attack production path):
/// items are packed once per round, then every user block is pure vertical
/// SIMD over contiguous micro-panels. The pack itself is excluded — it is
/// amortized over num_users / 8 block calls per evaluation pass.
void BM_ScoreBlockPacked(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  Rng rng(2);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> packed(kernels::PackedItemsSize(items, kDim));
  kernels::PackItems(V.Data().data(), items, kDim, packed.data());
  std::vector<float> scores(kUsers * items);
  for (auto _ : state) {
    kernels::ScoreBlockPacked(U.Data().data(), kUsers, packed.data(), items,
                              kDim, scores.data(), items);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items * kUsers));
}
BENCHMARK(BM_ScoreBlockPacked)->Arg(1682)->Arg(3706);

void BM_ScoreAllItems(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix V(items, 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> user(32), scores(items);
  for (auto& v : user) v = rng.NextFloat();
  for (auto _ : state) {
    for (std::size_t j = 0; j < items; ++j) scores[j] = Dot(user, V.Row(j));
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}
BENCHMARK(BM_ScoreAllItems)->Arg(1682)->Arg(3706);

/// The screened top-K the attack and the evaluator run per user: K = 10 over
/// a catalogue with 0, 2 or 100 sorted exclusions spread across it, into a
/// reused output buffer. Reported per scanned item.
void BM_TopK(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t num_excluded = static_cast<std::size_t>(state.range(2));
  Rng rng(3);
  std::vector<float> scores(items);
  for (auto& s : scores) s = rng.NextFloat();
  std::vector<std::uint32_t> excluded;
  for (std::size_t idx : rng.SampleWithoutReplacement(items, num_excluded)) {
    excluded.push_back(static_cast<std::uint32_t>(idx));
  }
  std::sort(excluded.begin(), excluded.end());
  std::vector<std::uint32_t> top;
  for (auto _ : state) {
    TopKIndicesExcludingSortedInto(scores, k, excluded, top);
    benchmark::DoNotOptimize(top.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}
BENCHMARK(BM_TopK)
    ->Args({1682, 10, 0})
    ->Args({1682, 10, 2})
    ->Args({1682, 10, 100})
    ->Args({3706, 10, 0})
    ->Args({3706, 10, 2})
    ->Args({3706, 10, 100});

/// Top-K as the attack's Eq. 15 runs it: the 8 users of one
/// ScoreBlockPacked tile (Gaussian factors, dim 32), each with its own score
/// row and 2 excluded public items, K = 10. Unlike BM_TopK's one repeated
/// row, the rows differ, so each call starts cold. Reported per scanned
/// item.
void BM_TopKScoredTile(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  constexpr std::size_t kK = 10;
  Rng rng(3);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> packed(kernels::PackedItemsSize(items, kDim));
  kernels::PackItems(V.Data().data(), items, kDim, packed.data());
  std::vector<float> scores(kUsers * items);
  kernels::ScoreBlockPacked(U.Data().data(), kUsers, packed.data(), items,
                            kDim, scores.data(), items);
  std::vector<std::vector<std::uint32_t>> excluded(kUsers);
  for (auto& user_excluded : excluded) {
    for (std::size_t idx : rng.SampleWithoutReplacement(items, 2)) {
      user_excluded.push_back(static_cast<std::uint32_t>(idx));
    }
    std::sort(user_excluded.begin(), user_excluded.end());
  }
  std::vector<std::uint32_t> top;
  for (auto _ : state) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      const std::span<const float> row(scores.data() + u * items, items);
      TopKIndicesExcludingSortedInto(row, kK, excluded[u], top);
      benchmark::DoNotOptimize(top.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kUsers * items));
}
BENCHMARK(BM_TopKScoredTile)->Arg(1682)->Arg(3706);

/// The ML-100K (preset 0, 943 x 1682) and ML-1M (preset 1, 6040 x 3706)
/// synthetic presets; generating ML-1M takes seconds, so each is built once
/// per process.
const Dataset& Preset(bool ml1m) {
  static const Dataset kData[2] = {GenerateSynthetic(MovieLens100KConfig(6)),
                                   GenerateSynthetic(MovieLens1MConfig(6))};
  return kData[ml1m ? 1 : 0];
}

std::string PresetLabel(bool ml1m, std::size_t threads) {
  return std::string(ml1m ? "ml-1m" : "ml-100k") +
         (threads > 0 ? " pool=" + std::to_string(threads) : " serial");
}

/// One whole preset generation (range(0): 0 = ML-100K, 1 = ML-1M, seed 6)
/// on a pool of range(1) workers (0 = serial), including the final sort
/// into a Dataset. Reported per generated user.
void BM_GenerateSynthetic(benchmark::State& state) {
  const bool ml1m = state.range(0) == 1;
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const SyntheticConfig config = ml1m ? MovieLens1MConfig(6) : MovieLens100KConfig(6);
  // A 1-worker pool runs its loops inline: the serial path.
  ThreadPool pool(threads > 0 ? threads : 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateSynthetic(config, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.num_users));
  state.SetLabel(PresetLabel(ml1m, threads));
}
BENCHMARK(BM_GenerateSynthetic)
    ->Args({0, 0})
    ->Args({0, 3})
    ->Args({1, 0})
    ->Args({1, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Cost of one ParallelFor with an empty body on 3 workers: range(0)
/// one-iteration chunks, after range(1) microseconds of serial work on the
/// calling thread (0 = back to back). Only the dispatch is timed.
void BM_ParallelForDispatch(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const auto chunks = static_cast<std::size_t>(state.range(0));
  const auto gap = std::chrono::microseconds(state.range(1));
  ThreadPool pool(3);
  for (auto _ : state) {
    for (const auto until = Clock::now() + gap; Clock::now() < until;) {
    }
    const auto start = Clock::now();
    pool.ParallelFor(0, chunks, /*grain=*/1,
                     [](std::size_t i) { benchmark::DoNotOptimize(i); });
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgsProduct({{12, 32, 64}, {0, 200}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

/// One epoch's negative resampling (RoundEngine::BeginEpoch): every preset
/// user draws one negative per positive. range(0) picks the preset,
/// range(1) the pool's worker count (0 = serial). Reported per user.
void BM_ResampleNegatives(benchmark::State& state) {
  const bool ml1m = state.range(0) == 1;
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const Dataset& data = Preset(ml1m);
  MfHyperParams params;
  std::vector<Client> clients;
  for (std::size_t u = 0; u < data.num_users(); ++u) {
    clients.emplace_back(static_cast<std::uint32_t>(u), data.UserItems(u),
                         params, Rng(u));
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    ParallelFor(pool.get(), clients.size(), [&](std::size_t i) {
      clients[i].ResampleNegatives(data.num_items(), 1);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(clients.size()));
  state.SetLabel(PresetLabel(ml1m, threads));
}
BENCHMARK(BM_ResampleNegatives)
    ->Args({0, 0})
    ->Args({0, 3})
    ->Args({1, 0})
    ->Args({1, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One benign client's round (TrainRoundInto into a recycled upload, dim 32)
/// for a preset's median (range(1) = 0) or heaviest (1) user by positives.
void BM_ClientTrainRound(benchmark::State& state) {
  const bool ml1m = state.range(0) == 1;
  const Dataset& data = Preset(ml1m);
  std::vector<std::uint32_t> users(data.num_users());
  for (std::size_t u = 0; u < users.size(); ++u) {
    users[u] = static_cast<std::uint32_t>(u);
  }
  std::sort(users.begin(), users.end(), [&](std::uint32_t a, std::uint32_t b) {
    return data.UserItems(a).size() < data.UserItems(b).size();
  });
  const std::uint32_t user =
      state.range(1) == 1 ? users.back() : users[users.size() / 2];
  FedConfig config;
  config.model.dim = 32;
  Rng rng(4);
  Matrix V(data.num_items(), 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Client client(user, data.UserItems(user), config.model, Rng(5));
  client.ResampleNegatives(data.num_items(), 1);
  ClientUpdate update;
  for (auto _ : state) {
    client.TrainRoundInto(V, config, update);
    benchmark::DoNotOptimize(update.item_gradients.row_count());
  }
  state.SetLabel(std::string(ml1m ? "ml-1m" : "ml-100k") +
                 (state.range(1) == 1 ? " heaviest " : " median ") +
                 std::to_string(data.UserItems(user).size()) + " positives");
}
BENCHMARK(BM_ClientTrainRound)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

/// Eq. 20 as the attack runs it each round: the poisoned gradient over 256
/// sampled users (the benchmark workloads' users_per_step) at xi = 1%, dim
/// 32, into a reused matrix. range(0) picks the preset (0 = ML-100K, 1 =
/// ML-1M), range(1) the pool's worker count (0 = serial). Reported per
/// sampled user.
void BM_PoisonGradient(benchmark::State& state) {
  const bool ml1m = state.range(0) == 1;
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const Dataset& data = Preset(ml1m);
  Rng rng(7);
  const auto view = PublicInteractions::Sample(data, 0.01, rng,
                                               PublicSamplingMode::kCeil);
  FedRecAttackConfig config;
  config.target_items = {11};
  config.users_per_step = 256;
  FedRecAttack attack(config, &view, data.num_users(), 32);
  Matrix V(data.num_items(), 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  attack.ApproximateUsers(V, 2, pool.get());
  Matrix gradient;
  for (auto _ : state) {
    attack.ComputePoisonGradientInto(V, pool.get(), gradient);
    benchmark::DoNotOptimize(gradient.Data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.users_per_step));
  state.SetLabel(PresetLabel(ml1m, threads));
}
BENCHMARK(BM_PoisonGradient)
    ->Args({0, 0})
    ->Args({0, 3})
    ->Args({1, 0})
    ->Args({1, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Eq. 19 as the attack runs it each round: 2 warm-start epochs of BPR-SGD
/// over D' (xi = 1%, ceil per user) with V frozen, dim 32. range(0) picks the
/// preset (0 = ML-100K, 943 x 1682; 1 = ML-1M, 6040 x 3706), range(1) the
/// pool's worker count (0 = serial). Reported per public interaction visited.
void BM_ApproximateUsers(benchmark::State& state) {
  const bool ml1m = state.range(0) == 1;
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const Dataset& data = Preset(ml1m);
  Rng rng(7);
  const auto view = PublicInteractions::Sample(data, 0.01, rng,
                                               PublicSamplingMode::kCeil);
  FedRecAttackConfig config;
  config.target_items = {11};
  FedRecAttack attack(config, &view, data.num_users(), 32);
  Matrix V(data.num_items(), 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    attack.ApproximateUsers(V, 2, pool.get());
  }
  benchmark::DoNotOptimize(attack.approximated_users().Data().data());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(view.TotalCount()));
  state.SetLabel(PresetLabel(ml1m, threads));
}
BENCHMARK(BM_ApproximateUsers)
    ->Args({0, 0})
    ->Args({0, 3})
    ->Args({1, 0})
    ->Args({1, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// 64 clients x 60 random rows of 1682 items, dim 32 — the round shape of
/// the aggregation benchmark below.
std::vector<ClientUpdate> MakeRoundUpdates() {
  Rng rng(8);
  std::vector<ClientUpdate> updates;
  for (std::uint32_t c = 0; c < 64; ++c) {
    ClientUpdate update;
    update.user = c;
    update.item_gradients = SparseRowMatrix(32);
    for (int r = 0; r < 60; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(1682));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.05));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

void BM_AggregateSparse(benchmark::State& state) {
  const auto kind = static_cast<AggregatorKind>(state.range(0));
  const std::vector<ClientUpdate> updates = MakeRoundUpdates();
  AggregatorOptions options;
  options.kind = kind;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  for (auto _ : state) {
    AggregateUpdates(updates, 32, options, workspace, delta);
    benchmark::DoNotOptimize(delta.row_count());
  }
}
BENCHMARK(BM_AggregateSparse)
    ->Arg(static_cast<int>(AggregatorKind::kSum))
    ->Arg(static_cast<int>(AggregatorKind::kTrimmedMean))
    ->Arg(static_cast<int>(AggregatorKind::kMedian))
    ->Arg(static_cast<int>(AggregatorKind::kKrum))
    ->Unit(benchmark::kMillisecond);

/// The median kernel at a fixed contributor count: `n` clients each upload
/// the same 64 rows (dim 32), so every row group has exactly n contributors.
void BM_AggregateSparseMedian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<ClientUpdate> updates(n);
  for (std::size_t c = 0; c < n; ++c) {
    updates[c].user = static_cast<std::uint32_t>(c);
    updates[c].item_gradients = SparseRowMatrix(32);
    for (std::size_t row = 0; row < 64; ++row) {
      auto values = updates[c].item_gradients.RowMutable(row * 7);
      for (auto& v : values) v = static_cast<float>(rng.NextGaussian(0.0, 0.05));
    }
  }
  AggregatorOptions options;
  options.kind = AggregatorKind::kMedian;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  for (auto _ : state) {
    AggregateUpdates(updates, 32, options, workspace, delta);
    benchmark::DoNotOptimize(delta.row_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 64 * 32));
}
BENCHMARK(BM_AggregateSparseMedian)
    ->Arg(2)->Arg(5)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// The wire checksum at a 4 KiB message and at one shard's inbox in the
/// ML-1M sharded workload (about 680 KiB).
void BM_Crc32(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<unsigned char> buffer(bytes);
  for (auto& b : buffer) b = static_cast<unsigned char>(rng.NextBounded(256));
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(crc, buffer.data(), buffer.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(HasFoldedCrc32() ? "folded" : "table");
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(680 << 10);

void BM_WeightedSample(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> weights(3706);
  for (auto& w : weights) w = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.WeightedSampleWithoutReplacement(weights, 60));
  }
}
BENCHMARK(BM_WeightedSample);

}  // namespace
}  // namespace fedrec

BENCHMARK_MAIN();
