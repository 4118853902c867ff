#include "shard/coordinator.h"

#include <bit>
#include <csignal>
#include <cstdio>
#include <utility>

#include "common/csv.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "net/frame_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/checkpoint.h"
#include "shard/shard_plan.h"
#include "shard/sharded_round_engine.h"

namespace fedrec {

namespace {

constexpr char kCheckpointFile[] = "coordinator.frck";

/// Order-sensitive SplitMix64 chain over the matrix's float bit patterns:
/// equal digests iff equal bytes. Printed as the run's final-model witness so
/// transcripts can be diffed without shipping the matrix.
std::uint64_t MatrixDigest(const Matrix& matrix) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL ^
                        (static_cast<std::uint64_t>(matrix.rows()) * 1000003u +
                         matrix.cols());
  for (const float value : matrix.Data()) {
    state ^= std::bit_cast<std::uint32_t>(value);
    (void)SplitMix64(state);
  }
  return SplitMix64(state);
}

/// One transcript line, flushed immediately: the process may be SIGKILLed at
/// any instant (that is the point), and a line buffered past the crash would
/// make the pre-crash transcript unreadable to chaos_test.
void EpochLine(std::size_t epoch, double loss) {
  std::printf("epoch %zu loss %.17g\n", epoch, loss);
  std::fflush(stdout);
}

}  // namespace

FederationCoordinator::FederationCoordinator(Options options)
    : options_(std::move(options)) {}

int FederationCoordinator::Run() {
  // The workload is regenerated from seeds on every start — fresh or
  // recovering — so the checkpoint only needs to carry training state, and
  // the fingerprint proves both processes built the same world.
  SyntheticConfig data_config;
  data_config.name = "fedrec-coord";
  data_config.num_users = options_.users;
  data_config.num_items = options_.users * 3 / 2;
  data_config.mean_interactions_per_user = 14.0;
  data_config.seed = options_.data_seed;
  const Dataset data = GenerateSynthetic(data_config);

  FedConfig config;
  config.model.dim = options_.dim;
  config.model.learning_rate = 0.03f;
  config.clients_per_round = options_.clients_per_round;
  config.epochs = options_.epochs;
  config.seed = options_.seed;
  config.faults.dropout_rate = options_.dropout_rate;
  config.faults.straggler_rate = options_.straggler_rate;
  config.faults.fault_seed = options_.fault_seed;

  const std::uint64_t fingerprint = CheckpointFingerprint(
      config, data.num_items(), data.num_users(), /*num_malicious=*/0);
  const ShardPlan plan(data.num_items(), options_.endpoints.size(),
                       ShardPolicy::kContiguousRange);

  SocketShardTransport::Options transport_options;
  transport_options.endpoints = options_.endpoints;
  transport_options.io_timeout_ms = options_.io_timeout_ms;
  transport_options.run_fingerprint = fingerprint;
  SocketShardTransport transport(plan, config.model.dim, transport_options);

  Simulation sim(data, config, /*num_malicious=*/0, nullptr, nullptr);
  ShardedRoundEngine sharded(&sim.engine(), &sim.model(), &config, &transport,
                             nullptr);

  if (!options_.trace_out.empty()) {
    // ~32k spans of ring: the most recent few thousand rounds of stage
    // coverage; older spans are overwritten, never reallocated.
    obs::TraceRing::Global().Enable(1u << 15);
  }
  // --stats-port: the shared serving loop with no protocol handler, on its
  // own thread. Scrapes are observe-only — the loop reads the registry's
  // atomics and never touches round state — so they cannot perturb the run.
  FrameServer::Options stats_options;
  stats_options.port = options_.stats_port;
  FrameServer stats_server(stats_options);
  if (options_.stats_port != 0) {
    const Status started = stats_server.Listen();
    if (!started.ok()) {
      std::printf("stats listener failed: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("stats listening on %u\n",
                static_cast<unsigned>(stats_server.port()));
    std::fflush(stdout);
    stats_server.RunOnThread();
  }
  const auto dump_observability = [&]() {
    if (!options_.metrics_dump.empty()) {
      std::string text;
      obs::Registry::Global().RenderText(text);
      if (options_.metrics_dump == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
      } else {
        const Status written = WriteStringToFile(options_.metrics_dump, text);
        if (!written.ok()) {
          std::printf("metrics dump failed: %s\n",
                      written.ToString().c_str());
        }
      }
    }
    if (!options_.trace_out.empty()) {
      std::string json;
      obs::TraceRing::Global().RenderJson(json);
      const Status written = WriteStringToFile(options_.trace_out, json);
      if (!written.ok()) {
        std::printf("trace dump failed: %s\n", written.ToString().c_str());
      }
    }
  };

  const std::string checkpoint_path =
      options_.checkpoint_dir.empty()
          ? std::string()
          : options_.checkpoint_dir + "/" + kCheckpointFile;
  const std::size_t checkpoint_every =
      options_.checkpoint_every == 0 ? 1 : options_.checkpoint_every;

  if (!checkpoint_path.empty()) {
    Result<TrainingCheckpoint> loaded = LoadCheckpoint(checkpoint_path);
    if (loaded.ok()) {
      // A checkpoint that loads but does not restore is a foreign run (the
      // fingerprint ties it to config + dataset shape) — resuming silently
      // would be a correctness bug, so refuse loudly.
      const Status restored = RestoreCheckpoint(loaded.value(), sim);
      if (!restored.ok()) {
        std::printf("checkpoint restore refused: %s\n",
                    restored.ToString().c_str());
        return 1;
      }
      std::printf("restored checkpoint: epoch %zu round %zu %s\n",
                  sim.current_epoch(), sim.global_round(),
                  sim.epoch_open() ? "open" : "closed");
    } else {
      // Missing file is the fresh-start path; SaveCheckpointAtomic's staged
      // rename means a torn file cannot exist at the final path, so starting
      // over is safe — and determinism makes the from-scratch replay converge
      // to the identical run regardless.
      std::printf("no usable checkpoint (%s): fresh start\n",
                  loaded.status().ToString().c_str());
    }
    std::fflush(stdout);
  }

  const auto save_checkpoint = [&]() -> bool {
    if (checkpoint_path.empty()) return true;
    const Status saved =
        SaveCheckpointAtomic(CaptureCheckpoint(sim), checkpoint_path);
    if (!saved.ok()) {
      std::printf("checkpoint save failed: %s\n", saved.ToString().c_str());
      std::fflush(stdout);
      return false;
    }
    return true;
  };

  bool drained = false;
  while (true) {
    const std::size_t before_epoch = sim.current_epoch();
    const std::size_t ran =
        sim.RunRounds(1, [&] { return sharded.RunRound(); });
    if (ran == 0) break;  // schedule exhausted
    if (!sim.epoch_open() && sim.current_epoch() != before_epoch) {
      // The round closed its epoch; epoch_loss() still holds the total until
      // the next BeginEpoch resets it.
      EpochLine(before_epoch, sim.epoch_loss());
    }
    if (options_.kill_after_round != 0 &&
        sim.global_round() >= options_.kill_after_round) {
      // Chaos hook: die exactly here — after the round, before its autosave —
      // so recovery must replay every round since the previous checkpoint.
      std::printf("kill-after-round %zu: raising SIGKILL\n",
                  sim.global_round());
      std::fflush(stdout);
      (void)std::raise(SIGKILL);
    }
    if (sim.global_round() % checkpoint_every == 0 && !save_checkpoint()) {
      return 1;
    }
    if (stop_requested_.load(std::memory_order_relaxed)) {
      drained = true;
      break;
    }
  }

  if (drained) {
    // SIGTERM drain (satellite S1): the in-flight round finished above; park
    // a final checkpoint so the successor resumes from this exact state.
    if (!save_checkpoint()) return 1;
    std::printf("drained: checkpoint at round %zu, exiting 0\n",
                sim.global_round());
    std::fflush(stdout);
    dump_observability();
    return 0;
  }

  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(
                  MatrixDigest(sim.model().item_factors())));
  const FaultStats& faults = sim.engine().fault_stats();
  std::printf(
      "ledger dropped=%llu stragglers=%llu corrupt=%llu skipped=%llu\n",
      static_cast<unsigned long long>(faults.dropped_uploads),
      static_cast<unsigned long long>(faults.straggler_uploads),
      static_cast<unsigned long long>(faults.corrupt_messages),
      static_cast<unsigned long long>(faults.skipped_rounds));
  const FaultStats& wire = sharded.wire_fault_stats();
  std::printf("wire outages=%llu retries=%llu fallbacks=%llu\n",
              static_cast<unsigned long long>(wire.shard_outages),
              static_cast<unsigned long long>(wire.shard_retries),
              static_cast<unsigned long long>(wire.fallback_shards));
  std::fflush(stdout);
  dump_observability();
  return 0;
}

}  // namespace fedrec
