#include "shard/sharded_round_engine.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attack_factory.h"
#include "common/fault.h"
#include "attack/target_select.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "obs/metrics.h"
#include "shard/shard_plan.h"
#include "shard/shard_server.h"
#include "shard/wire.h"

namespace fedrec {
namespace {

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

// --- ShardPlan -------------------------------------------------------------

TEST(ShardPlanTest, ContiguousRangesPartitionTheRowSpace) {
  for (const auto& [items, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {10, 1}, {10, 3}, {7, 3}, {100, 8}, {5, 8}}) {
    const ShardPlan plan(items, shards, ShardPolicy::kContiguousRange);
    EXPECT_EQ(plan.RangeBegin(0), 0u);
    EXPECT_EQ(plan.RangeEnd(shards - 1), items);
    for (std::size_t s = 0; s + 1 < shards; ++s) {
      EXPECT_EQ(plan.RangeEnd(s), plan.RangeBegin(s + 1));
    }
    for (std::size_t row = 0; row < items; ++row) {
      const std::size_t s = plan.ShardOf(row);
      ASSERT_LT(s, shards);
      EXPECT_GE(row, plan.RangeBegin(s)) << "items=" << items << " row=" << row;
      EXPECT_LT(row, plan.RangeEnd(s)) << "items=" << items << " row=" << row;
    }
  }
}

TEST(ShardPlanTest, HashedIsInRangeDeterministicAndSpread) {
  const ShardPlan plan(1000, 4, ShardPolicy::kHashed);
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t row = 0; row < 1000; ++row) {
    const std::size_t s = plan.ShardOf(row);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(plan.ShardOf(row), s);  // stable
    ++counts[s];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    // A uniform mixer should land far from degenerate on 1000 rows.
    EXPECT_GT(counts[s], 150u);
    EXPECT_LT(counts[s], 350u);
  }
}

TEST(ShardPlanTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(ShardPolicyToString(ShardPolicy::kContiguousRange),
               "contiguous-range");
  EXPECT_STREQ(ShardPolicyToString(ShardPolicy::kHashed), "hashed");
}

// --- ShardServer bit-identity ----------------------------------------------

/// Runs one ServerRound (route -> aggregate -> wire -> merge -> apply) on
/// `transport` against a throwaway model; returns the round's ledger.
FaultStats RunServerRound(ShardTransport& transport,
                          const std::vector<ClientUpdate>& updates,
                          const AggregatorOptions& options, ThreadPool* pool,
                          ServerRound& round) {
  MfHyperParams params;
  params.dim = transport.server().dim();
  Rng rng(0);
  MfModel model(transport.server().plan().num_items(), params, rng);
  FaultStats ledger;
  round.Run(transport, updates, options, ShardRetryPolicy{}, /*round=*/0,
            /*learning_rate=*/0.01f, model, pool, ledger);
  return ledger;
}

/// Runs one full sharded round over an in-process transport and returns the
/// merged delta. Krum's winner is picked inside the round and broadcast as
/// its round sequence number (= index).
SparseRoundDelta ShardedAggregate(const ShardPlan& plan,
                                  const std::vector<ClientUpdate>& updates,
                                  std::size_t dim,
                                  const AggregatorOptions& options,
                                  ThreadPool* pool) {
  InProcessShardTransport transport(plan, dim);
  ServerRound round;
  RunServerRound(transport, updates, options, pool, round);
  return round.merged();
}

TEST(ShardServerTest, BitIdenticalToSingleServerForAllRulesAndShardCounts) {
  const std::size_t num_items = 40;
  const std::size_t dim = 5;
  const auto updates = RandomUpdates(17, num_items, dim, 12, 1);
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kTrimmedMean,
        AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 12;

    AggregationWorkspace workspace;
    SparseRoundDelta reference;
    AggregateUpdates(updates, dim, options, workspace, reference);

    for (const ShardPolicy policy :
         {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
      for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        const ShardPlan plan(num_items, shards, policy);
        const SparseRoundDelta merged =
            ShardedAggregate(plan, updates, dim, options, nullptr);
        ASSERT_EQ(merged.row_count(), reference.row_count())
            << AggregatorKindToString(kind) << " policy="
            << ShardPolicyToString(policy) << " shards=" << shards;
        EXPECT_TRUE(merged.ToDense(num_items) == reference.ToDense(num_items))
            << AggregatorKindToString(kind) << " policy="
            << ShardPolicyToString(policy) << " shards=" << shards;
        for (std::size_t slot = 0; slot < merged.row_count(); ++slot) {
          EXPECT_EQ(merged.rows()[slot], reference.rows()[slot]);
        }
      }
    }
  }
}

TEST(ShardServerTest, PoolParallelShardsStayBitIdentical) {
  const std::size_t num_items = 60;
  const std::size_t dim = 6;
  const auto updates = RandomUpdates(13, num_items, dim, 10, 2);
  ThreadPool pool(4);
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kMedian, AggregatorKind::kKrum}) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 9;
    AggregationWorkspace workspace;
    SparseRoundDelta reference;
    AggregateUpdates(updates, dim, options, workspace, reference);
    for (const ShardPolicy policy :
         {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
      const ShardPlan plan(num_items, 4, policy);
      const SparseRoundDelta merged =
          ShardedAggregate(plan, updates, dim, options, &pool);
      EXPECT_TRUE(merged.ToDense(num_items) == reference.ToDense(num_items))
          << AggregatorKindToString(kind) << " policy="
          << ShardPolicyToString(policy);
    }
  }
}

TEST(ShardServerTest, KrumStaysBitIdenticalWhenClientIdsCollide) {
  // A sybil can impersonate a benign client's id; the winner broadcast uses
  // round-unique sequence numbers, so the shards must still emit exactly the
  // Krum-selected upload.
  const std::size_t num_items = 40;
  const std::size_t dim = 5;
  auto updates = RandomUpdates(9, num_items, dim, 8, 6);
  for (ClientUpdate& update : updates) update.user = 3;  // all ids collide
  AggregatorOptions options;
  options.kind = AggregatorKind::kKrum;
  options.krum_honest = 6;
  AggregationWorkspace workspace;
  SparseRoundDelta reference;
  AggregateUpdates(updates, dim, options, workspace, reference);
  const ShardPlan plan(num_items, 4, ShardPolicy::kHashed);
  const SparseRoundDelta merged =
      ShardedAggregate(plan, updates, dim, options, nullptr);
  EXPECT_TRUE(merged.ToDense(num_items) == reference.ToDense(num_items));
}

TEST(ShardServerTest, EmptyRoundYieldsEmptyMergedDelta) {
  const ShardPlan plan(20, 4, ShardPolicy::kContiguousRange);
  const SparseRoundDelta merged =
      ShardedAggregate(plan, {}, 3, AggregatorOptions{}, nullptr);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.cols(), 3u);
}

TEST(ShardServerTest, ShardDeltasCoverOnlyOwnedRows) {
  const std::size_t num_items = 50;
  const std::size_t dim = 4;
  const auto updates = RandomUpdates(9, num_items, dim, 8, 3);
  const ShardPlan plan(num_items, 4, ShardPolicy::kHashed);
  InProcessShardTransport transport(plan, dim);
  ServerRound round;
  RunServerRound(transport, updates, AggregatorOptions{}, nullptr, round);
  std::set<std::size_t> seen;
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t row : transport.server().shard_delta(s).rows()) {
      EXPECT_EQ(plan.ShardOf(row), s);
      EXPECT_TRUE(seen.insert(row).second) << "row on two shards";
    }
  }
}

TEST(ShardServerTest, WireStatsAccumulate) {
  const auto updates = RandomUpdates(6, 30, 4, 5, 4);
  const ShardPlan plan(30, 2, ShardPolicy::kContiguousRange);
  // The armed round corrupts every FRWD reply, so every shard retries and
  // falls back; its FRWD bytes must be counted all the same.
  FaultSpec spec;
  spec.delta_corrupt_rate = 1.0;
  spec.fault_seed = 3;
  const FaultPlan faults(spec, /*run_seed=*/1);
  for (const FaultPlan* armed : {static_cast<const FaultPlan*>(nullptr),
                                 &faults}) {
    InProcessShardTransport transport(plan, 4);
    transport.set_fault_plan(armed);
    ServerRound round;
    const FaultStats ledger = RunServerRound(
        transport, updates, AggregatorOptions{}, nullptr, round);
    const ShardServerStats& stats = transport.server().stats();
    EXPECT_EQ(stats.rounds, 1u);
    EXPECT_GT(stats.upload_messages, 0u);
    EXPECT_GT(stats.upload_bytes, 0u);
    EXPECT_GT(stats.delta_bytes, 0u) << (armed ? "armed" : "unarmed");
    EXPECT_EQ(ledger.fallback_shards, armed != nullptr ? 2u : 0u);
  }
}

TEST(ShardServerTest, MisroutedRowFailsLoudly) {
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, 3);
  // Row 30 belongs to shard 1; deliver it to shard 0's inbox.
  SparseRowMatrix upload(3);
  upload.RowMutable(30)[0] = 1.0f;
  EncodeUpload(upload, 1, server.inbox(0));
  const Status status =
      server.AggregateShardRound(0, AggregatorOptions{}, 1, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ShardServerTest, CorruptInboxFailsLoudly) {
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, 3);
  server.inbox(1).WriteBytes("not a wire message", 18);
  const Status status =
      server.AggregateShardRound(1, AggregatorOptions{}, 0, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ShardServerTest, DimensionMismatchFailsLoudly) {
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, /*dim=*/3);
  SparseRowMatrix upload(5);  // wrong dim
  upload.RowMutable(2)[0] = 1.0f;
  EncodeUpload(upload, 1, server.inbox(0));
  const Status status =
      server.AggregateShardRound(0, AggregatorOptions{}, 1, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

// --- ShardedRoundEngine end to end -----------------------------------------

Dataset EngineData() {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 90;
  config.mean_interactions_per_user = 12.0;
  config.seed = 1;
  return GenerateSynthetic(config);
}

FedConfig EngineConfig() {
  FedConfig config;
  config.model.dim = 8;
  config.model.learning_rate = 0.05f;
  config.clients_per_round = 16;
  config.epochs = 3;
  config.seed = 2;
  return config;
}

/// Drives `epochs` epochs through the sharded path; returns per-epoch losses.
std::vector<double> RunSharded(Simulation& sim, const FedConfig& config,
                               const ShardPlan& plan, ThreadPool* pool,
                               std::size_t epochs) {
  ShardedRoundEngine sharded(&sim.engine(), &sim.model(), &config, plan, pool);
  std::vector<double> losses;
  for (std::size_t e = 0; e < epochs; ++e) {
    sharded.BeginEpoch(e);
    double loss = 0.0;
    while (sharded.HasNextRound()) loss += sharded.RunRound();
    losses.push_back(loss);
  }
  return losses;
}

TEST(ShardedRoundEngineTest, BitIdenticalToSingleServerEngine) {
  const Dataset data = EngineData();
  const FedConfig config = EngineConfig();
  for (const std::size_t shards : {1u, 3u, 8u}) {
    Simulation reference(data, config, 0, nullptr, nullptr);
    Simulation sharded_sim(data, config, 0, nullptr, nullptr);
    const ShardPlan plan(data.num_items(), shards, ShardPolicy::kHashed);
    const std::vector<double> sharded_losses =
        RunSharded(sharded_sim, config, plan, nullptr, 3);
    for (std::size_t e = 0; e < 3; ++e) {
      EXPECT_DOUBLE_EQ(reference.RunEpoch(), sharded_losses[e])
          << "shards=" << shards;
    }
    EXPECT_TRUE(reference.model().item_factors() ==
                sharded_sim.model().item_factors())
        << "shards=" << shards;
  }
}

TEST(ShardedRoundEngineTest, RobustRulesStayBitIdenticalSharded) {
  const Dataset data = EngineData();
  for (const AggregatorKind kind :
       {AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    FedConfig config = EngineConfig();
    config.epochs = 2;
    config.aggregator.kind = kind;
    Simulation reference(data, config, 0, nullptr, nullptr);
    Simulation sharded_sim(data, config, 0, nullptr, nullptr);
    const ShardPlan plan(data.num_items(), 4, ShardPolicy::kContiguousRange);
    const std::vector<double> sharded_losses =
        RunSharded(sharded_sim, config, plan, nullptr, 2);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_DOUBLE_EQ(reference.RunEpoch(), sharded_losses[e])
          << AggregatorKindToString(kind);
    }
    EXPECT_TRUE(reference.model().item_factors() ==
                sharded_sim.model().item_factors())
        << AggregatorKindToString(kind);
  }
}

TEST(ShardedRoundEngineTest, AttackFactoryUploadsFlowThroughRoutedPath) {
  // Poisoned uploads must ride the same wire path as benign ones and leave
  // the trajectory bit-identical to the single-server engine under attack.
  const Dataset data = EngineData();
  Rng rng(11);
  const PublicInteractions view =
      PublicInteractions::Sample(data, 0.05, rng, PublicSamplingMode::kCeil);
  Rng target_rng(12);
  const auto targets =
      SelectTargetItems(data, 1, TargetSelection::kUnpopular, target_rng);

  FedConfig config = EngineConfig();
  config.epochs = 2;
  const std::size_t num_malicious = 6;

  AttackOptions attack_options;
  attack_options.kind = "fedrecattack";
  attack_options.target_items = targets;
  attack_options.kappa = 20;
  attack_options.clip_norm = config.clip_norm;
  AttackInputs inputs;
  inputs.train = &data;
  inputs.public_view = &view;
  inputs.num_benign_users = data.num_users();
  inputs.dim = config.model.dim;

  auto reference_attack = CreateAttack(attack_options, inputs);
  reference_attack.status().CheckOK();
  auto sharded_attack = CreateAttack(attack_options, inputs);
  sharded_attack.status().CheckOK();

  Simulation reference(data, config, num_malicious,
                       reference_attack.value().get(), nullptr);
  Simulation sharded_sim(data, config, num_malicious,
                         sharded_attack.value().get(), nullptr);
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kHashed);

  std::size_t malicious_uploads_observed = 0;
  ShardedRoundEngine sharded(&sharded_sim.engine(), &sharded_sim.model(),
                             &config, plan, nullptr);
  for (std::size_t e = 0; e < 2; ++e) {
    sharded.BeginEpoch(e);
    double loss = 0.0;
    while (sharded.HasNextRound()) {
      loss += sharded.RunRound([&](const std::vector<ClientUpdate>&,
                                   const std::vector<bool>& is_malicious) {
        for (bool flag : is_malicious) {
          if (flag) ++malicious_uploads_observed;
        }
      });
    }
    EXPECT_DOUBLE_EQ(reference.RunEpoch(), loss);
  }
  EXPECT_GT(malicious_uploads_observed, 0u);
  EXPECT_TRUE(reference.model().item_factors() ==
              sharded_sim.model().item_factors());
}

TEST(ShardedRoundEngineTest, PublishesTheEngineFaultLedger) {
  // Transit faults thin the uploads on the sharded path too, and some rounds
  // miss the quorum. Every round, skipped or not, must republish the
  // engine's ledger as fedrec_fault_*{scope="engine"}, so a live scrape
  // agrees with engine().fault_stats() once the run ends.
  const Dataset data = EngineData();
  FedConfig config = EngineConfig();
  config.faults.dropout_rate = 0.5;
  config.faults.fault_seed = 17;
  config.min_round_quorum = 8;
  Simulation sim(data, config, 0, nullptr, nullptr);
  const ShardPlan plan(data.num_items(), 3, ShardPolicy::kHashed);
  RunSharded(sim, config, plan, nullptr, 2);

  const FaultStats& stats = sim.engine().fault_stats();
  ASSERT_GT(stats.dropped_uploads, 0u);
  ASSERT_GT(stats.skipped_rounds, 0u);
  obs::Registry& registry = obs::Registry::Global();
  EXPECT_EQ(registry
                .GetGauge("fedrec_fault_dropped_uploads", "scope=\"engine\"")
                ->Value(),
            static_cast<std::int64_t>(stats.dropped_uploads));
  EXPECT_EQ(registry
                .GetGauge("fedrec_fault_skipped_rounds", "scope=\"engine\"")
                ->Value(),
            static_cast<std::int64_t>(stats.skipped_rounds));
}

class ShardedRoundAllocationTest
    : public ::testing::TestWithParam<AggregatorKind> {};

TEST_P(ShardedRoundAllocationTest,
       SteadyStateRoundsAreAllocationFreeOnTheWirePath) {
  SyntheticConfig data_config;
  data_config.num_users = 60;
  data_config.num_items = 90;
  data_config.mean_interactions_per_user = 12.0;
  data_config.activity_sigma = 0.05;
  data_config.seed = 1;
  const Dataset data = GenerateSynthetic(data_config);
  FedConfig config = EngineConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.rounds_per_epoch = 8;
  config.aggregator.kind = GetParam();
  Simulation sim(data, config, 0, nullptr, nullptr);
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kHashed);
  ShardedRoundEngine sharded(&sim.engine(), &sim.model(), &config, plan,
                             nullptr);
  // Warm every buffer's high-water mark. The sharded path needs more warm
  // rounds than the single-server engine: a shard arena's watermark depends
  // on which client's rows hashed to which shard, so the per-shard maxima
  // are only reached once enough distinct selections have occurred.
  std::size_t epoch = 0;
  for (; epoch < 20; ++epoch) {
    sharded.BeginEpoch(epoch);
    while (sharded.HasNextRound()) sharded.RunRound();
  }
  ResetSparseAllocationCount();
  for (; epoch < 23; ++epoch) {
    sharded.BeginEpoch(epoch);
    while (sharded.HasNextRound()) sharded.RunRound();
  }
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, ShardedRoundAllocationTest,
    ::testing::Values(AggregatorKind::kSum, AggregatorKind::kMedian,
                      AggregatorKind::kTrimmedMean),
    [](const ::testing::TestParamInfo<AggregatorKind>& info) {
      return info.param == AggregatorKind::kTrimmedMean
                 ? std::string("trimmed_mean")
                 : std::string(AggregatorKindToString(info.param));
    });

TEST(ShardServerTest, DuplicateDeliveryFailsLoudly) {
  // Whole-inbox duplication (the kDuplicate wire fault) re-delivers every
  // message with an already-seen source id. Each copy's own CRC still
  // validates, so the strictly-ascending source check is what rejects the
  // replay (the message-count check would catch it too).
  const std::size_t dim = 4;
  const auto updates = RandomUpdates(5, 40, dim, 8, 3);
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, dim);
  server.RouteRound(updates, nullptr);
  WireFault duplicate;
  duplicate.kind = WireFaultKind::kDuplicate;
  EXPECT_TRUE(ApplyWireFault(duplicate, server.inbox(0).mutable_buffer()));
  const Status status = server.AggregateShardRound(
      0, AggregatorOptions{}, updates.size(), /*krum_source=*/0);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

// --- Shard-path decode: the flat-arena parser's own corruption surface -----

/// A 2-message inbox for shard 0 of a 2-shard plan over 40 items: uploads 3
/// and 8 of a round, both carrying row 4 (a row may repeat across messages).
std::string TwoMessageInbox(std::size_t dim) {
  BinaryWriter inbox;
  SparseRowMatrix first(dim);
  SparseRowMatrix second(dim);
  for (const std::size_t row : {4u, 11u, 0u}) {
    for (float& v : first.RowMutable(row)) v = 0.25f * static_cast<float>(row);
  }
  for (const std::size_t row : {19u, 4u}) {
    for (float& v : second.RowMutable(row)) v = -0.5f;
  }
  EncodeUpload(first, /*source=*/3, inbox);
  EncodeUpload(second, /*source=*/8, inbox);
  return inbox.buffer();
}

TEST(ShardDecodeTest, SameRowInTwoMessagesIsAccepted) {
  const std::size_t dim = 3;
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, dim);
  const std::string inbox = TwoMessageInbox(dim);
  AggregatorOptions options;  // sum
  ASSERT_TRUE(server.AggregateShardRoundWire(0, inbox, 2, options, 2, 0).ok());
  const SparseRoundDelta& delta = server.shard_delta(0);
  ASSERT_EQ(delta.row_count(), 4u);
  EXPECT_EQ(delta.rows()[1], 4u);
  EXPECT_EQ(delta.RowAtSlot(1)[0], 1.0f - 0.5f);
}

TEST(ShardDecodeTest, DuplicateRowWithinOneMessageFails) {
  const std::size_t dim = 3;
  for (const ShardPolicy policy :
       {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
    const ShardPlan plan(40, 2, policy);
    ShardServer server(plan, dim);
    std::size_t owned = 5;
    while (plan.ShardOf(owned) != 1) ++owned;
    SparseRowMatrix upload(dim);
    upload.RowMutable(owned)[0] = 1.0f;
    // Slot 0 listed twice: a well-framed message with a valid CRC that
    // carries the same row twice.
    const std::uint32_t slots[] = {0, 0};
    BinaryWriter inbox;
    EncodeUpload(upload, /*source=*/1, slots, inbox);
    const Status status = server.AggregateShardRoundWire(
        1, inbox.buffer(), 1, AggregatorOptions{}, 1, 0);
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << ShardPolicyToString(policy);
    EXPECT_NE(status.ToString().find("duplicate row"), std::string::npos)
        << status.ToString();
  }
}

TEST(ShardDecodeTest, EveryByteFlipOfATwoMessageInboxFails) {
  const std::size_t dim = 3;
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, dim);
  const std::string inbox = TwoMessageInbox(dim);
  for (std::size_t offset = 0; offset < inbox.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = inbox;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      for (const AggregatorKind kind :
           {AggregatorKind::kSum, AggregatorKind::kMedian}) {
        AggregatorOptions options;
        options.kind = kind;
        const Status status =
            server.AggregateShardRoundWire(0, corrupted, 2, options, 2, 0);
        ASSERT_EQ(status.code(), StatusCode::kCorruption)
            << "flip of byte " << offset << " bit " << bit;
      }
    }
  }
  // The pristine inbox still aggregates on the same (reused) server.
  EXPECT_TRUE(
      server.AggregateShardRoundWire(0, inbox, 2, AggregatorOptions{}, 2, 0)
          .ok());
}

TEST(ShardDecodeTest, EveryTruncationOfATwoMessageInboxFails) {
  const std::size_t dim = 3;
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, dim);
  const std::string inbox = TwoMessageInbox(dim);
  // Prefix 0 is an empty delivery and the first message's end a clean
  // boundary: the expected message count is what rejects those two.
  for (std::size_t keep = 0; keep < inbox.size(); ++keep) {
    const Status status = server.AggregateShardRoundWire(
        0, std::string_view(inbox.data(), keep), 2, AggregatorOptions{}, 2,
        0);
    ASSERT_EQ(status.code(), StatusCode::kCorruption) << "prefix " << keep;
  }
}

}  // namespace
}  // namespace fedrec
