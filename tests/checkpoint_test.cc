#include "shard/checkpoint.h"

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "data/synthetic.h"
#include "fed/simulation.h"

namespace fedrec {
namespace {

Dataset SmallData() {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 90;
  config.mean_interactions_per_user = 12.0;
  config.seed = 1;
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

/// A deliberately tiny run, so the exhaustive corruption sweeps stay fast.
Dataset TinyData() {
  SyntheticConfig config;
  config.num_users = 6;
  config.num_items = 10;
  config.mean_interactions_per_user = 4.0;
  config.seed = 3;
  return GenerateSynthetic(config);
}

FedConfig TinyConfig() {
  FedConfig config;
  config.model.dim = 2;
  config.clients_per_round = 3;
  config.epochs = 2;
  config.seed = 4;
  return config;
}

std::string Encoded(const TrainingCheckpoint& checkpoint) {
  BinaryWriter writer;
  EncodeCheckpoint(checkpoint, writer);
  return writer.buffer();
}

bool SameRng(const RngSnapshot& a, const RngSnapshot& b) {
  for (int i = 0; i < 4; ++i) {
    if (a.state[i] != b.state[i]) return false;
  }
  return a.cached_gaussian == b.cached_gaussian &&
         a.has_cached_gaussian == b.has_cached_gaussian;
}

// --- Fingerprint ------------------------------------------------------------

TEST(CheckpointFingerprintTest, SensitiveToEveryTrajectoryShapingField) {
  // One row per config field CheckpointFingerprint mixes: changing any one
  // of them must change the fingerprint, and no two changes may collide.
  struct FieldChange {
    const char* field;
    void (*apply)(FedConfig&);
  };
  const FieldChange changes[] = {
      {"seed", [](FedConfig& c) { c.seed = 99; }},
      {"model.dim", [](FedConfig& c) { c.model.dim = 16; }},
      {"model.learning_rate",
       [](FedConfig& c) { c.model.learning_rate = 0.02f; }},
      {"model.l2_reg", [](FedConfig& c) { c.model.l2_reg = 0.001f; }},
      {"model.init_std", [](FedConfig& c) { c.model.init_std = 0.2f; }},
      {"clients_per_round", [](FedConfig& c) { c.clients_per_round = 8; }},
      {"participation",
       [](FedConfig& c) {
         c.participation = ParticipationMode::kUniformPerRound;
       }},
      {"rounds_per_epoch", [](FedConfig& c) { c.rounds_per_epoch = 5; }},
      {"epochs", [](FedConfig& c) { c.epochs = 5; }},
      {"clip_norm", [](FedConfig& c) { c.clip_norm = 0.5f; }},
      {"noise_scale", [](FedConfig& c) { c.noise_scale = 0.1f; }},
      {"negatives_per_positive",
       [](FedConfig& c) { c.negatives_per_positive = 2; }},
      {"aggregator.kind",
       [](FedConfig& c) { c.aggregator.kind = AggregatorKind::kMedian; }},
      {"aggregator.trim_fraction",
       [](FedConfig& c) { c.aggregator.trim_fraction = 0.2; }},
      {"aggregator.norm_bound",
       [](FedConfig& c) { c.aggregator.norm_bound = 2.0; }},
      {"aggregator.krum_honest",
       [](FedConfig& c) { c.aggregator.krum_honest = 5; }},
      {"min_round_quorum", [](FedConfig& c) { c.min_round_quorum = 3; }},
      {"max_shard_retries", [](FedConfig& c) { c.max_shard_retries = 4; }},
      {"shard_retry_backoff_ticks",
       [](FedConfig& c) { c.shard_retry_backoff_ticks = 3; }},
      {"faults.dropout_rate",
       [](FedConfig& c) { c.faults.dropout_rate = 0.1; }},
      {"faults.straggler_rate",
       [](FedConfig& c) { c.faults.straggler_rate = 0.1; }},
      {"faults.straggler_max_ticks",
       [](FedConfig& c) { c.faults.straggler_max_ticks = 9; }},
      {"faults.round_deadline_ticks",
       [](FedConfig& c) { c.faults.round_deadline_ticks = 5; }},
      {"faults.upload_corrupt_rate",
       [](FedConfig& c) { c.faults.upload_corrupt_rate = 0.1; }},
      {"faults.delta_corrupt_rate",
       [](FedConfig& c) { c.faults.delta_corrupt_rate = 0.1; }},
      {"faults.shard_outage_rate",
       [](FedConfig& c) { c.faults.shard_outage_rate = 0.1; }},
      {"faults.fault_seed", [](FedConfig& c) { c.faults.fault_seed = 7; }},
  };
  static_assert(std::size(changes) == 27,
                "one row per config field the fingerprint mixes");

  const FedConfig base = SmallConfig();
  const std::uint64_t reference = CheckpointFingerprint(base, 90, 60, 0);
  EXPECT_EQ(CheckpointFingerprint(base, 90, 60, 0), reference);
  std::set<std::uint64_t> seen = {reference};
  for (const FieldChange& change : changes) {
    FedConfig changed = base;
    change.apply(changed);
    EXPECT_TRUE(seen.insert(CheckpointFingerprint(changed, 90, 60, 0)).second)
        << change.field << " does not change the fingerprint";
  }
  // The dataset shape: item, benign and malicious counts.
  EXPECT_TRUE(seen.insert(CheckpointFingerprint(base, 91, 60, 0)).second);
  EXPECT_TRUE(seen.insert(CheckpointFingerprint(base, 90, 61, 0)).second);
  EXPECT_TRUE(seen.insert(CheckpointFingerprint(base, 90, 60, 5)).second);
}

// --- Codec ------------------------------------------------------------------

TEST(CheckpointCodecTest, CaptureEncodeDecodeRoundTripsEveryField) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 0.2;  // nonzero fault counters in the capture
  config.faults.fault_seed = 9;
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_EQ(sim.RunRounds(6), 6u);  // mid-epoch: 4 rounds per epoch

  const TrainingCheckpoint original = CaptureCheckpoint(sim);
  EXPECT_TRUE(original.epoch_open);
  BinaryWriter writer;
  EncodeCheckpoint(original, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  TrainingCheckpoint decoded;
  const Status status = DecodeCheckpoint(reader, decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(decoded.config_fingerprint, original.config_fingerprint);
  EXPECT_EQ(decoded.epoch, original.epoch);
  EXPECT_EQ(decoded.epoch_loss, original.epoch_loss);
  EXPECT_EQ(decoded.epoch_open, original.epoch_open);
  EXPECT_EQ(decoded.engine.epoch, original.engine.epoch);
  EXPECT_EQ(decoded.engine.round_in_epoch, original.engine.round_in_epoch);
  EXPECT_EQ(decoded.engine.rounds_this_epoch,
            original.engine.rounds_this_epoch);
  EXPECT_EQ(decoded.engine.global_round, original.engine.global_round);
  EXPECT_EQ(decoded.engine.order, original.engine.order);
  EXPECT_EQ(decoded.engine.fault_stats.dropped_uploads,
            original.engine.fault_stats.dropped_uploads);
  EXPECT_EQ(decoded.engine.clock_ticks, original.engine.clock_ticks);
  EXPECT_TRUE(SameRng(decoded.server_rng, original.server_rng));
  EXPECT_TRUE(decoded.item_factors == original.item_factors);
  ASSERT_EQ(decoded.clients.size(), original.clients.size());
  for (std::size_t i = 0; i < decoded.clients.size(); ++i) {
    EXPECT_EQ(decoded.clients[i].user_vector, original.clients[i].user_vector);
    EXPECT_EQ(decoded.clients[i].negatives, original.clients[i].negatives);
    EXPECT_TRUE(SameRng(decoded.clients[i].rng, original.clients[i].rng));
  }

  // The decoded checkpoint re-encodes to the same bytes — no field is lost.
  EXPECT_EQ(Encoded(decoded), writer.buffer());
}

TEST(CheckpointCodecTest, RejectsForeignMagicAndUnknownVersion) {
  BinaryWriter foreign;
  foreign.WriteU32(0x58585858);  // "XXXX"
  foreign.WriteU32(1);
  foreign.WriteU32(0);
  BinaryReader foreign_reader = BinaryReader::View(foreign.buffer());
  TrainingCheckpoint out;
  Status status = DecodeCheckpoint(foreign_reader, out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);

  BinaryWriter future;
  future.WriteU32(0x4B435246);  // "FRCK"
  future.WriteU32(3);           // unknown version
  future.WriteU32(0);
  BinaryReader future_reader = BinaryReader::View(future.buffer());
  status = DecodeCheckpoint(future_reader, out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);

  // A version-1 file (the format that carried round pipelining's double
  // buffer): a valid current body under a v1 header. The checksum covers
  // only the bytes after the version field, so only the version check can
  // reject it.
  const Dataset data = TinyData();
  Simulation sim(data, TinyConfig(), 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(1), 0u);
  const std::string current = Encoded(CaptureCheckpoint(sim));
  const std::size_t header = 2 * sizeof(std::uint32_t);
  BinaryWriter v1;
  v1.WriteU32(0x4B435246);  // "FRCK"
  v1.WriteU32(1);
  v1.WriteBytes(current.data() + header, current.size() - header);
  BinaryReader v1_reader = BinaryReader::View(v1.buffer());
  status = DecodeCheckpoint(v1_reader, out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(CheckpointCodecTest, EveryByteFlipFailsWithCorruption) {
  const Dataset data = TinyData();
  const FedConfig config = TinyConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(1), 0u);
  const std::string pristine = Encoded(CaptureCheckpoint(sim));

  std::string corrupted;
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupted = pristine;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      BinaryReader reader = BinaryReader::View(corrupted);
      TrainingCheckpoint out;
      const Status status = DecodeCheckpoint(reader, out);
      ASSERT_FALSE(status.ok()) << "offset=" << offset << " bit=" << bit;
      ASSERT_EQ(status.code(), StatusCode::kCorruption)
          << "offset=" << offset << " bit=" << bit;
    }
  }
}

TEST(CheckpointCodecTest, EveryTruncationFailsWithCorruption) {
  const Dataset data = TinyData();
  const FedConfig config = TinyConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(1), 0u);
  const std::string pristine = Encoded(CaptureCheckpoint(sim));

  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    BinaryReader reader =
        BinaryReader::View(std::string_view(pristine.data(), keep));
    TrainingCheckpoint out;
    const Status status = DecodeCheckpoint(reader, out);
    ASSERT_FALSE(status.ok()) << "keep=" << keep;
    ASSERT_EQ(status.code(), StatusCode::kCorruption) << "keep=" << keep;
  }
}

TEST(CheckpointFileTest, SaveLoadRoundTripsAndMissingFileFails) {
  const Dataset data = TinyData();
  const FedConfig config = TinyConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(2), 0u);
  const TrainingCheckpoint checkpoint = CaptureCheckpoint(sim);

  const std::string path = testing::TempDir() + "fedrec_checkpoint.frck";
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());
  Result<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Encoded(loaded.value()), Encoded(checkpoint));

  EXPECT_FALSE(LoadCheckpoint(testing::TempDir() + "no_such.frck").ok());
}

// --- Restore ----------------------------------------------------------------

TEST(CheckpointRestoreTest, RefusesForeignConfigAndDataset) {
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();
  Simulation source(data, config, 0, nullptr, nullptr);
  ASSERT_GT(source.RunRounds(2), 0u);
  const TrainingCheckpoint checkpoint = CaptureCheckpoint(source);

  FedConfig other_config = config;
  other_config.seed = 777;
  Simulation other(data, other_config, 0, nullptr, nullptr);
  const Status status = RestoreCheckpoint(checkpoint, other);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

/// Runs `config.epochs` epochs two ways — uninterrupted, and killed after
/// `kill_after_rounds` rounds then restored into a fresh simulation — and
/// asserts the two trajectories are bit-identical from the kill point on.
void ExpectKillRestoreBitIdentical(const Dataset& data, const FedConfig& config,
                                   std::size_t kill_after_rounds,
                                   ThreadPool* pool) {
  Simulation uninterrupted(data, config, 0, nullptr, pool);
  std::vector<double> reference_losses;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    reference_losses.push_back(uninterrupted.RunEpoch());
  }

  Simulation doomed(data, config, 0, nullptr, pool);
  ASSERT_EQ(doomed.RunRounds(kill_after_rounds), kill_after_rounds);
  const TrainingCheckpoint checkpoint = CaptureCheckpoint(doomed);
  // Serialize through the codec, as a real kill/restart would.
  BinaryWriter writer;
  EncodeCheckpoint(checkpoint, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  TrainingCheckpoint reloaded;
  ASSERT_TRUE(DecodeCheckpoint(reader, reloaded).ok());

  Simulation resumed(data, config, 0, nullptr, pool);
  const Status status = RestoreCheckpoint(reloaded, resumed);
  ASSERT_TRUE(status.ok()) << status.ToString();

  const std::size_t first_epoch = resumed.current_epoch();
  for (std::size_t e = first_epoch; e < config.epochs; ++e) {
    EXPECT_DOUBLE_EQ(resumed.RunEpoch(), reference_losses[e])
        << "epoch " << e << " diverged after restore";
  }
  EXPECT_TRUE(resumed.model().item_factors() ==
              uninterrupted.model().item_factors());
  EXPECT_EQ(resumed.engine().fault_stats().dropped_uploads,
            uninterrupted.engine().fault_stats().dropped_uploads);
  EXPECT_EQ(resumed.engine().fault_stats().virtual_ticks,
            uninterrupted.engine().fault_stats().virtual_ticks);
}

TEST(CheckpointRestoreTest, MidEpochKillRestoreIsBitIdentical) {
  // 60 users / 16 per round = 4 rounds per epoch; 6 lands mid-epoch 1.
  ExpectKillRestoreBitIdentical(SmallData(), SmallConfig(),
                                /*kill_after_rounds=*/6, /*pool=*/nullptr);
}

TEST(CheckpointRestoreTest, EpochBoundaryKillRestoreIsBitIdentical) {
  ExpectKillRestoreBitIdentical(SmallData(), SmallConfig(),
                                /*kill_after_rounds=*/8, /*pool=*/nullptr);
}

TEST(CheckpointRestoreTest, UniformRoundsWithPoolSurviveKillRestore) {
  // kUniformPerRound draws every round from the persistent order buffer, so
  // the checkpoint must carry that buffer; the pool trains the clients.
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  ThreadPool pool(4);
  ExpectKillRestoreBitIdentical(SmallData(), config, /*kill_after_rounds=*/6,
                                &pool);
}

TEST(CheckpointRestoreTest, FaultScheduleSurvivesKillRestore) {
  // The restored run must replay the exact same failure history: the fault
  // plan is keyed by round, and the round counters travel in the checkpoint.
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 0.3;
  config.faults.straggler_rate = 0.2;
  config.faults.fault_seed = 23;
  ExpectKillRestoreBitIdentical(SmallData(), config, /*kill_after_rounds=*/5,
                                /*pool=*/nullptr);
}

}  // namespace
}  // namespace fedrec
