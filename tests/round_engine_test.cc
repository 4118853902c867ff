#include "fed/round_engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fed/simulation.h"
#include "model/metrics.h"

namespace fedrec {
namespace {

Dataset SmallData(std::uint64_t seed = 1) {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 90;
  config.mean_interactions_per_user = 12.0;
  config.seed = seed;
  return GenerateSynthetic(config);
}

FedConfig SmallConfig() {
  FedConfig config;
  config.model.dim = 8;
  config.model.learning_rate = 0.05f;
  config.clients_per_round = 16;
  config.epochs = 4;
  config.seed = 2;
  return config;
}

std::vector<ClientUpdate> RandomUpdates(std::size_t num_clients,
                                        std::size_t num_items, std::size_t dim,
                                        std::size_t rows_per_client,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientUpdate> updates;
  updates.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    ClientUpdate update;
    update.user = static_cast<std::uint32_t>(c);
    update.item_gradients = SparseRowMatrix(dim);
    for (std::size_t r = 0; r < rows_per_client; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(num_items));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

std::vector<EpochRecord> RunRecorded(const Dataset& data, FedConfig config,
                                     ThreadPool* pool) {
  MetricsConfig metrics_config;
  metrics_config.hr_negatives = 20;
  Rng rng(11);
  const LeaveOneOutSplit split = SplitLeaveOneOut(data, rng);
  Evaluator evaluator(split.train, split.test_items, metrics_config, 3);
  Simulation sim(split.train, config, 0, nullptr, pool);
  return sim.Run(&evaluator, {0}, /*eval_every=*/2);
}

// --- Sparse aggregation on a reused workspace, all five rules -------------

TEST(SparseAggregationTest, ReusedWorkspaceMatchesFreshForAllRules) {
  // A workspace and delta that held another round keep stale high-water
  // values; every rule must overwrite all of them, so the dense image of the
  // reused delta equals a fresh aggregation's bit for bit.
  const std::size_t num_items = 40;
  const std::size_t dim = 5;
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kTrimmedMean,
        AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 12;
    AggregationWorkspace reused_workspace;
    SparseRoundDelta reused;
    AggregateUpdates(RandomUpdates(23, num_items, dim, 15, 99), dim, options,
                     reused_workspace, reused);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const auto updates = RandomUpdates(17, num_items, dim, 12, seed);
      AggregateUpdates(updates, dim, options, reused_workspace, reused);
      AggregationWorkspace workspace;
      SparseRoundDelta fresh;
      AggregateUpdates(updates, dim, options, workspace, fresh);

      EXPECT_TRUE(reused.ToDense(num_items) == fresh.ToDense(num_items))
          << "kind=" << AggregatorKindToString(kind) << " seed=" << seed;
      // Touched rows are unique and ascending.
      for (std::size_t slot = 1; slot < reused.row_count(); ++slot) {
        EXPECT_LT(reused.rows()[slot - 1], reused.rows()[slot]);
      }
    }
  }
}

TEST(SparseAggregationTest, SumMatchesManualReference) {
  // Independent reference: accumulate contributor rows by hand, sharing no
  // code with the production sparse implementation.
  const std::size_t num_items = 25;
  const std::size_t dim = 4;
  const auto updates = RandomUpdates(9, num_items, dim, 6, 5);
  Matrix expected(num_items, dim);
  for (const ClientUpdate& update : updates) {
    for (std::size_t row : update.item_gradients.row_ids()) {
      const auto src = update.item_gradients.Row(row);
      auto dst = expected.Row(row);
      for (std::size_t d = 0; d < dim; ++d) dst[d] += src[d];
    }
  }
  AggregatorOptions options;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, dim, options, workspace, delta);
  const Matrix actual = delta.ToDense(num_items);
  for (std::size_t i = 0; i < num_items; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_NEAR(actual.At(i, d), expected.At(i, d), 1e-5f);
    }
  }
}

TEST(SparseAggregationTest, TouchedRowsAreTheUploadUnion) {
  const auto updates = RandomUpdates(6, 30, 3, 5, 7);
  std::set<std::size_t> expected_rows;
  for (const ClientUpdate& update : updates) {
    for (std::size_t row : update.item_gradients.row_ids()) {
      expected_rows.insert(row);
    }
  }
  AggregatorOptions options;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, 3, options, workspace, delta);
  EXPECT_EQ(delta.row_count(), expected_rows.size());
  std::size_t slot = 0;
  for (std::size_t row : expected_rows) {
    EXPECT_EQ(delta.rows()[slot++], row);
  }
}

TEST(SparseAggregationTest, EmptyRoundYieldsEmptyDelta) {
  AggregatorOptions options;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates({}, 4, options, workspace, delta);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.cols(), 4u);
  EXPECT_FLOAT_EQ(delta.ToDense(10).FrobeniusNorm(), 0.0f);
}

TEST(SparseApplyTest, MatchesDenseApplyBitwise) {
  const std::size_t num_items = 35;
  const std::size_t dim = 6;
  const auto updates = RandomUpdates(10, num_items, dim, 8, 9);
  AggregatorOptions options;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, dim, options, workspace, delta);

  MfHyperParams params;
  params.dim = dim;
  Rng rng_a(3), rng_b(3);
  MfModel sparse_model(num_items, params, rng_a);
  MfModel dense_model(num_items, params, rng_b);
  ASSERT_TRUE(sparse_model.item_factors() == dense_model.item_factors());

  sparse_model.ApplySparseGradient(delta, 0.01f);
  dense_model.ApplyGradient(delta.ToDense(num_items), 0.01f);
  EXPECT_TRUE(sparse_model.item_factors() == dense_model.item_factors());
}

// --- Engine determinism and serial/parallel equivalence --------------------

TEST(RoundEngineTest, SameSeedTwiceIsBitIdentical) {
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();
  const auto a = RunRecorded(data, config, nullptr);
  const auto b = RunRecorded(data, config, nullptr);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].epoch, b[e].epoch);
    EXPECT_EQ(a[e].rounds, b[e].rounds);
    EXPECT_DOUBLE_EQ(a[e].train_loss, b[e].train_loss);
    ASSERT_EQ(a[e].has_metrics, b[e].has_metrics);
    if (a[e].has_metrics) {
      EXPECT_DOUBLE_EQ(a[e].metrics.hit_ratio, b[e].metrics.hit_ratio);
      EXPECT_DOUBLE_EQ(a[e].metrics.ndcg, b[e].metrics.ndcg);
      ASSERT_EQ(a[e].metrics.er_at.size(), b[e].metrics.er_at.size());
      for (std::size_t k = 0; k < a[e].metrics.er_at.size(); ++k) {
        EXPECT_DOUBLE_EQ(a[e].metrics.er_at[k], b[e].metrics.er_at[k]);
      }
    }
  }
}

TEST(RoundEngineTest, SerialAndParallelEnginesAreBitIdentical) {
  // Client streams are private, update slots are indexed, the loss reduction
  // and the aggregation walk fixed orders: thread scheduling must not change
  // a single bit of the records or the model.
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();
  ThreadPool pool(4);
  const auto serial = RunRecorded(data, config, nullptr);
  const auto parallel = RunRecorded(data, config, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t e = 0; e < serial.size(); ++e) {
    EXPECT_DOUBLE_EQ(serial[e].train_loss, parallel[e].train_loss);
    if (serial[e].has_metrics) {
      EXPECT_DOUBLE_EQ(serial[e].metrics.hit_ratio,
                       parallel[e].metrics.hit_ratio);
      EXPECT_DOUBLE_EQ(serial[e].metrics.ndcg, parallel[e].metrics.ndcg);
    }
  }

  Simulation sim_serial(data, config, 0, nullptr, nullptr);
  Simulation sim_parallel(data, config, 0, nullptr, &pool);
  for (int e = 0; e < 3; ++e) {
    EXPECT_DOUBLE_EQ(sim_serial.RunEpoch(), sim_parallel.RunEpoch());
  }
  EXPECT_TRUE(sim_serial.model().item_factors() ==
              sim_parallel.model().item_factors());
}

TEST(RoundEngineTest, LargestFirstDispatchMatchesSerialSlotForSlot) {
  // Heavy-tailed activity, so the dispatch order really differs from the
  // selection order. Every round, copies of the selected clients train one
  // after another in selection order; LocalTrain's uploads must equal them
  // slot for slot at every pool size.
  SyntheticConfig data_config;
  data_config.num_users = 80;
  data_config.num_items = 150;
  data_config.mean_interactions_per_user = 14.0;
  data_config.activity_sigma = 1.0;
  data_config.seed = 4;
  const Dataset data = GenerateSynthetic(data_config);
  const FedConfig config = SmallConfig();
  std::unique_ptr<ThreadPool> pool;
  for (const std::size_t threads : {0u, 1u, 3u, 8u}) {
    SCOPED_TRACE(::testing::Message() << threads << " pool threads");
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    Simulation sim(data, config, 0, nullptr, pool.get());
    RoundEngine& engine = sim.engine();
    const RoundWorkspace& workspace = engine.workspace();
    std::vector<ClientUpdate> expected;
    for (std::size_t epoch = 0; epoch < 2; ++epoch) {
      engine.BeginEpoch(epoch);
      while (engine.HasNextRound()) {
        engine.Select();
        const std::vector<std::uint32_t>& selected = workspace.selected_benign;
        std::vector<Client> serial = sim.benign_clients();
        expected.resize(selected.size());
        for (std::size_t i = 0; i < selected.size(); ++i) {
          serial[selected[i]].TrainRoundInto(sim.model().item_factors(),
                                             config, expected[i]);
        }
        engine.LocalTrain();
        ASSERT_EQ(workspace.updates.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const ClientUpdate& got = workspace.updates[i];
          EXPECT_EQ(got.user, expected[i].user);
          EXPECT_EQ(got.loss, expected[i].loss);
          EXPECT_EQ(got.pair_count, expected[i].pair_count);
          ASSERT_EQ(got.item_gradients.row_ids(),
                    expected[i].item_gradients.row_ids());
          for (std::size_t slot = 0; slot < got.item_gradients.row_count();
               ++slot) {
            const auto a = got.item_gradients.RowAtSlot(slot);
            const auto b = expected[i].item_gradients.RowAtSlot(slot);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
                << "slot " << i << " row " << slot;
          }
        }
        for (std::size_t k = 1; k < workspace.dispatch.size(); ++k) {
          EXPECT_GE(data.UserItems(selected[workspace.dispatch[k - 1]]).size(),
                    data.UserItems(selected[workspace.dispatch[k]]).size())
              << "dispatch is not largest-first";
        }
        engine.Aggregate();
        engine.Apply();
        engine.FinishRound();
      }
    }
  }
}

TEST(RoundEngineTest, RecordsCarryRoundThroughput) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.epochs = 2;
  const auto records = RunRecorded(data, config, nullptr);
  ASSERT_EQ(records.size(), 2u);
  for (const EpochRecord& record : records) {
    // ceil((60 benign + 0 malicious) / 16) = 4 rounds per epoch.
    EXPECT_EQ(record.rounds, 4u);
    EXPECT_GT(record.train_seconds, 0.0);
    EXPECT_GT(record.rounds_per_sec, 0.0);
  }
}

// --- Stage decomposition ---------------------------------------------------

TEST(RoundEngineTest, StagesPopulateTheWorkspace) {
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  RoundEngine& engine = sim.engine();

  engine.BeginEpoch(0);
  ASSERT_TRUE(engine.HasNextRound());
  EXPECT_EQ(engine.rounds_this_epoch(), 4u);

  engine.Select();
  const RoundWorkspace& workspace = engine.workspace();
  EXPECT_EQ(workspace.selected_benign.size(), config.clients_per_round);
  EXPECT_TRUE(workspace.selected_malicious.empty());

  const double loss = engine.LocalTrain();
  EXPECT_GT(loss, 0.0);
  EXPECT_EQ(workspace.updates.size(), config.clients_per_round);

  engine.Aggregate();
  EXPECT_FALSE(workspace.delta.empty());
  EXPECT_LE(workspace.delta.row_count(), data.num_items());

  const Matrix before = sim.model().item_factors();
  engine.Apply();
  EXPECT_FALSE(sim.model().item_factors() == before);
}

/// Coordinator asserting the engine exposes its workspace (and the benign
/// uploads of the round) through RoundContext.
class WorkspaceProbeCoordinator : public MaliciousCoordinator {
 public:
  std::string name() const override { return "workspace-probe"; }

  std::vector<ClientUpdate> ProduceUpdates(
      const RoundContext& context,
      std::span<const std::uint32_t> selected_malicious) override {
    EXPECT_NE(context.workspace, nullptr);
    if (context.workspace != nullptr) {
      // At attack time the workspace holds exactly the benign uploads.
      EXPECT_EQ(context.workspace->updates.size(),
                context.workspace->selected_benign.size());
      for (bool flag : context.workspace->is_malicious) EXPECT_FALSE(flag);
      benign_updates_seen_ += context.workspace->updates.size();
    }
    std::vector<ClientUpdate> updates;
    for (std::uint32_t id : selected_malicious) {
      ClientUpdate update;
      update.user = id;
      update.item_gradients = SparseRowMatrix(context.model->dim());
      updates.push_back(std::move(update));
    }
    return updates;
  }

  std::size_t benign_updates_seen_ = 0;
};

TEST(RoundEngineTest, ContextExposesWorkspaceToCoordinators) {
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();
  WorkspaceProbeCoordinator coordinator;
  Simulation sim(data, config, 8, &coordinator, nullptr);
  sim.RunEpoch();
  // Every benign client participated once and was visible to some call.
  EXPECT_LE(coordinator.benign_updates_seen_, data.num_users());
  EXPECT_GT(coordinator.benign_updates_seen_, 0u);
}

// --- Participation modes ---------------------------------------------------

TEST(ParticipationTest, UniformPerRoundSamplesDistinctClients) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.rounds_per_epoch = 10;
  Simulation sim(data, config, 0, nullptr, nullptr);
  std::size_t rounds = 0;
  sim.SetRoundObserver([&](const std::vector<ClientUpdate>& updates,
                           const std::vector<bool>&) {
    ++rounds;
    EXPECT_EQ(updates.size(), 16u);
    std::set<std::uint32_t> users;
    for (const ClientUpdate& update : updates) users.insert(update.user);
    EXPECT_EQ(users.size(), updates.size()) << "duplicate client in a round";
  });
  sim.RunEpoch();
  EXPECT_EQ(rounds, 10u);
  EXPECT_EQ(sim.global_round(), 10u);
}

TEST(ParticipationTest, UniformPerRoundIsDeterministicPerSeed) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.rounds_per_epoch = 6;
  Simulation a(data, config, 0, nullptr, nullptr);
  Simulation b(data, config, 0, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.RunEpoch(), b.RunEpoch());
  EXPECT_TRUE(a.model().item_factors() == b.model().item_factors());
}

TEST(ParticipationTest, UniformDefaultRoundCountMatchesShuffledEpochs) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.rounds_per_epoch = 0;  // fall back to ceil(clients / batch)
  Simulation sim(data, config, 0, nullptr, nullptr);
  sim.RunEpoch();
  EXPECT_EQ(sim.global_round(), (data.num_users() + 15) / 16);
}

// --- Uniform participation with a pool -------------------------------------

FedConfig UniformConfig(std::size_t clients_per_round, std::size_t rounds) {
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.clients_per_round = clients_per_round;
  config.rounds_per_epoch = rounds;
  return config;
}

Dataset SparseRegimeData() {
  // Large catalogue, few interactions per user, near-uniform item popularity
  // (no Zipf head shared by everyone): consecutive tiny selections rarely
  // share item rows.
  SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 4000;
  config.mean_interactions_per_user = 5.0;
  config.popularity_exponent = 0.05;
  config.popularity_mix = 0.0;
  config.seed = 3;
  return GenerateSynthetic(config);
}

template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(UniformPoolTest, EveryPoolSizeMatchesThePoolLessRunBitForBit) {
  // Search over pool size x data regime x attack presence: a pooled
  // uniform-mode run must reproduce the pool-less run's epoch losses and
  // item factors bit for bit. The probe coordinator's uploads do not depend
  // on the pool, so any difference comes from the engine's schedule.
  struct Regime {
    const char* name;
    Dataset data;
    FedConfig config;
  };
  const Regime regimes[] = {
      {"small", SmallData(), UniformConfig(8, 12)},
      {"sparse", SparseRegimeData(), UniformConfig(3, 20)}};
  for (const Regime& regime : regimes) {
    for (const std::size_t malicious : {0u, 6u}) {
      const auto run = [&](ThreadPool* pool, std::vector<double>& losses) {
        WorkspaceProbeCoordinator coordinator;
        Simulation sim(regime.data, regime.config, malicious,
                       malicious > 0 ? &coordinator : nullptr, pool);
        for (int e = 0; e < 3; ++e) losses.push_back(sim.RunEpoch());
        return sim.model().item_factors();
      };
      std::vector<double> reference_losses;
      const Matrix reference = run(nullptr, reference_losses);
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(::testing::Message()
                     << regime.name << " data, " << malicious
                     << " malicious, " << threads << " pool threads");
        ThreadPool pool(threads);
        std::vector<double> losses;
        const Matrix factors = run(&pool, losses);
        EXPECT_TRUE(SameBits<double>(losses, reference_losses));
        EXPECT_TRUE(SameBits<float>(factors.Data(), reference.Data()));
      }
    }
  }
}

TEST(RoundEngineTest, SteadyStateRoundsAreSparseAllocationFree) {
  // Near-constant per-client interaction counts: every update slot's
  // capacity watermark is reached within the warm-up epochs, after which
  // whole epochs of rounds touch the heap zero times, with or without a
  // pool training the clients.
  SyntheticConfig data_config;
  data_config.num_users = 60;
  data_config.num_items = 90;
  data_config.mean_interactions_per_user = 12.0;
  data_config.activity_sigma = 0.05;
  data_config.seed = 1;
  const Dataset data = GenerateSynthetic(data_config);
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.rounds_per_epoch = 8;
  ThreadPool three_threads(3);
  for (ThreadPool* const pool : {static_cast<ThreadPool*>(nullptr),
                                 &three_threads}) {
    SCOPED_TRACE(pool == nullptr ? "no pool" : "3-thread pool");
    Simulation sim(data, config, 0, nullptr, pool);
    for (int e = 0; e < 5; ++e) sim.RunEpoch();  // warm every slot's capacity
    ResetSparseAllocationCount();
    for (int e = 0; e < 3; ++e) sim.RunEpoch();
    EXPECT_EQ(SparseAllocationCount(), 0u);
  }
}

TEST(ParticipationTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(ParticipationModeToString(ParticipationMode::kShuffledEpochs),
               "shuffled-epochs");
  EXPECT_STREQ(ParticipationModeToString(ParticipationMode::kUniformPerRound),
               "uniform-per-round");
}

}  // namespace
}  // namespace fedrec
