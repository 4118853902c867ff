// The three training workloads: FedRecAttack runs of the paper's protocol
// (k=32, 64 clients per round, xi=1%, rho=5%, kappa=60) on the synthetic
// ML-100K / ML-1M presets, through the single server or the sharded server.

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "attack/attack_factory.h"
#include "attack/target_select.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "shard/sharded_round_engine.h"
#include "workloads.h"

namespace fedrec::benchmark {

namespace {

struct TrainingSpec {
  const char* name;
  const char* dataset;
  AggregatorKind rule;
  std::size_t shards;  ///< 0 = single-server Simulation
  bool faults;
  std::size_t epochs;        ///< training never runs past this many epochs
  std::size_t check_epochs;  ///< quality digest after this many epochs
  std::size_t smoke_epochs;
  /// Rounds measured per second of --seconds: about the workload's round
  /// rate on a 4-core Xeon. The measured window is this round count, not a
  /// time budget, so a faster commit times the same rounds as its parent.
  double rounds_per_second;
};

// faults_ml100k_s2 is paper_ml100k through two shards that fail and recover;
// recovery is bit-identical, so the two share checkpoint and digest.
constexpr TrainingSpec kSpecs[] = {
    {"paper_ml100k", "ml-100k", AggregatorKind::kSum, 0, false, 200, 60, 5,
     270.0},
    {"robust_ml1m_s4", "ml-1m", AggregatorKind::kMedian, 4, false, 10, 5, 1,
     60.0},
    {"faults_ml100k_s2", "ml-100k", AggregatorKind::kSum, 2, true, 200, 60,
     5, 150.0},
};

/// Rounds every set-up runs before the measured phase, so first-round
/// buffer growth is paid in set-up, as a long-running server pays it once.
constexpr std::size_t kWarmupRounds = 10;

constexpr std::size_t kDim = 32;
constexpr std::size_t kClientsPerRound = 64;
constexpr double kXi = 0.01;
constexpr double kRho = 0.05;
constexpr std::size_t kKappa = 60;

/// The `fedrec_stage_us` series RoundEngine and ShardedRoundEngine record.
constexpr const char* kEngineStages[] = {
    "select",    "local_train", "attack",          "observe", "transit_faults",
    "aggregate", "route",       "shard_aggregate", "merge",   "apply"};

/// One complete set-up. Later members borrow earlier ones, so it stays put.
struct Training {
  LeaveOneOutSplit split;
  PublicInteractions view;
  std::vector<std::uint32_t> targets;
  std::unique_ptr<TimedAttack> attack;
  std::unique_ptr<Evaluator> evaluator;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<InProcessShardTransport> inproc;
  std::unique_ptr<TimedTransport> transport;
  std::unique_ptr<ShardedRoundEngine> sharded;
  std::size_t rounds_per_epoch = 0;
};

/// Runs one round; false once the configured epochs are exhausted. The time
/// before Simulation hands the round to the runner is its epoch bookkeeping
/// (BeginEpoch's negative resampling on an epoch's first round), added to
/// `begin_epoch_us`.
bool RunOneRound(Training& t, std::uint64_t& begin_epoch_us) {
  const std::uint64_t start_us = MonotonicMicros();
  return t.sim->RunRounds(1, [&] {
           const std::uint64_t runner_us = MonotonicMicros();
           begin_epoch_us += runner_us - start_us;
           obs::TraceRing::Global().Record("fed.begin_epoch", "bench",
                                           start_us, runner_us - start_us);
           return t.sharded != nullptr
                      ? t.sharded->RunRound()
                      : t.sim->engine().RunRound(RoundObserver{});
         }) == 1;
}

std::unique_ptr<Training> SetUp(const TrainingSpec& spec,
                                const RunOptions& options, std::size_t epochs,
                                ThreadPool* pool, SetupTimes& times) {
  const std::uint64_t start_us = MonotonicMicros();
  auto t = std::make_unique<Training>();
  const std::uint64_t seed = options.seed;

  std::uint64_t step_us = MonotonicMicros();
  Result<Dataset> dataset = GenerateByName(spec.dataset, seed, 1.0);
  dataset.status().CheckOK();
  times.generate_s.push_back(SecondsSince(step_us));

  step_us = MonotonicMicros();
  Rng rng(seed + 1);
  t->split = SplitLeaveOneOut(dataset.value(), rng);
  t->view = PublicInteractions::Sample(t->split.train, kXi, rng,
                                       PublicSamplingMode::kCeil);
  Rng target_rng(seed + 2);
  t->targets = SelectTargetItems(t->split.train, 1, TargetSelection::kUnpopular,
                                 target_rng);
  times.split_s.push_back(SecondsSince(step_us));

  FedConfig config;
  config.model.dim = kDim;
  config.clients_per_round = kClientsPerRound;
  config.epochs = epochs;
  config.aggregator.kind = spec.rule;
  config.seed = seed + 3;
  if (spec.faults) {
    config.faults.shard_outage_rate = 0.05;
    config.faults.delta_corrupt_rate = 0.05;
    config.faults.fault_seed = 7;
  }

  step_us = MonotonicMicros();
  AttackOptions attack_options;
  attack_options.kind = "fedrecattack";
  attack_options.target_items = t->targets;
  attack_options.kappa = kKappa;
  attack_options.users_per_step = 256;
  attack_options.seed = seed + 4;
  AttackInputs inputs;
  inputs.train = &t->split.train;
  inputs.public_view = &t->view;
  inputs.num_benign_users = t->split.train.num_users();
  inputs.dim = kDim;
  Result<std::unique_ptr<MaliciousCoordinator>> attack =
      CreateAttack(attack_options, inputs);
  attack.status().CheckOK();
  t->attack = std::make_unique<TimedAttack>(std::move(attack).value());
  times.attack_init_s.push_back(SecondsSince(step_us));

  step_us = MonotonicMicros();
  MetricsConfig metrics_config;
  metrics_config.er_ks = {5, 10};
  t->evaluator = std::make_unique<Evaluator>(
      t->split.train, t->split.test_items, metrics_config, seed + 5);
  times.evaluator_init_s.push_back(SecondsSince(step_us));

  const std::size_t users = t->split.train.num_users();
  const auto num_malicious =
      static_cast<std::size_t>(kRho * static_cast<double>(users) + 0.5);
  t->rounds_per_epoch =
      (users + num_malicious + kClientsPerRound - 1) / kClientsPerRound;
  t->sim = std::make_unique<Simulation>(t->split.train, config, num_malicious,
                                        t->attack.get(), pool);
  if (spec.shards > 0) {
    const ShardPlan plan(t->sim->model().num_items(), spec.shards,
                         ShardPolicy::kContiguousRange);
    if (spec.faults) {
      // Armed like the engine's owned transport is under an enabled plan,
      // but behind the timing decorator.
      t->inproc = std::make_unique<InProcessShardTransport>(plan, kDim);
      t->inproc->set_fault_plan(&t->sim->fault_plan());
      t->transport = std::make_unique<TimedTransport>(t->inproc.get());
      t->sharded = std::make_unique<ShardedRoundEngine>(
          &t->sim->engine(), &t->sim->model(), &t->sim->config(),
          t->transport.get(), pool);
    } else {
      t->sharded = std::make_unique<ShardedRoundEngine>(
          &t->sim->engine(), &t->sim->model(), &t->sim->config(), plan, pool);
    }
  }
  std::uint64_t unused_us = 0;
  for (std::size_t i = 0; i < kWarmupRounds; ++i) {
    FEDREC_CHECK(RunOneRound(*t, unused_us));
  }
  times.total_s.push_back(SecondsSince(start_us));
  return t;
}

void TakeCheckpoint(Training& t, ThreadPool* pool, RunReport& report) {
  const MetricsResult metrics =
      t.evaluator->Evaluate(t.sim->BenignUserFactors(),
                            t.sim->model().item_factors(), t.targets, pool);
  report.has_quality = true;
  report.checkpoint_round = t.sim->global_round();
  report.er5 = metrics.er_at[0];
  report.er10 = metrics.er_at[1];
  report.ndcg10 = metrics.ndcg;
  report.hr10 = metrics.hit_ratio;
  report.model_digest = MatrixDigest(t.sim->model().item_factors());
  if (t.sharded != nullptr && t.transport != nullptr) {
    const FaultStats& wire = t.sharded->wire_fault_stats();
    report.has_ledger = true;
    report.outages = wire.shard_outages;
    report.retries = wire.shard_retries;
    report.fallbacks = wire.fallback_shards;
  }
}

}  // namespace

bool IsTrainingWorkload(const std::string& name) {
  return std::any_of(std::begin(kSpecs), std::end(kSpecs),
                     [&](const TrainingSpec& s) { return name == s.name; });
}

RunReport RunTrainingWorkload(const RunOptions& options) {
  const TrainingSpec& spec = *std::find_if(
      std::begin(kSpecs), std::end(kSpecs),
      [&](const TrainingSpec& s) { return options.workload == s.name; });
  // One core is left free for the kernel and anything else the machine
  // runs. On a 4-vCPU Xeon, 3 workers run these rounds 5-8% faster than 4,
  // and one competing busy thread costs them 4% of rounds/s against 9%.
  const std::size_t threads =
      std::max<std::size_t>(1, DefaultThreadCount() - 1);
  const auto pool = std::make_unique<ThreadPool>(threads);
  const std::size_t epochs = options.smoke ? spec.smoke_epochs : spec.epochs;
  const std::size_t check_epochs =
      options.smoke ? spec.smoke_epochs : spec.check_epochs;

  SetupTimes setup;
  std::unique_ptr<Training> t =
      SetUp(spec, options, epochs, pool.get(), setup);
  RunReport report;
  report.threads = threads;
  const std::size_t check_round = check_epochs * t->rounds_per_epoch;
  const auto window = static_cast<std::size_t>(
      options.smoke ? 0.0 : options.seconds * spec.rounds_per_second + 0.5);
  // The window always runs on to the checkpoint, so the quality digest is
  // taken at a fixed round of the trajectory.
  const std::size_t end_round =
      std::max<std::size_t>(t->sim->global_round() + window, check_round);

  std::vector<StageSeries> stages;
  for (const char* stage : kEngineStages) {
    stages.emplace_back(stage);
    stages.back().Start();
  }
  std::uint64_t begin_epoch_us = 0;
  const std::uint64_t attack_us0 = t->attack->busy_us();
  const std::uint64_t attack_calls0 = t->attack->calls();
  const FaultStats wire0 =
      t->sharded != nullptr ? t->sharded->wire_fault_stats() : FaultStats{};
  const std::uint64_t wire_bytes0 =
      t->sharded != nullptr ? t->sharded->server().stats().upload_bytes : 0;
  if (t->transport != nullptr) t->transport->ResetCounters();
  const std::uint64_t skipped0 = t->sim->engine().fault_stats().skipped_rounds;
  const std::uint64_t allocs0 = SparseAllocationCount();
  const Status rss_reset = ResetPeakRss();
  if (!rss_reset.ok()) report.Fail("peak RSS: " + rss_reset.ToString());
  obs::TraceRing::Global().Clear();

  std::vector<double> round_ms;
  std::uint64_t measured_us = 0;
  // In-process infallible shards: the server's own per-shard aggregate
  // timers, summed per shard.
  std::vector<double> shard_busy_s(
      t->sharded != nullptr ? t->sharded->server().plan().num_shards() : 0);
  while (t->sim->global_round() < end_round) {
    const std::uint64_t start_us = MonotonicMicros();
    if (!RunOneRound(*t, begin_epoch_us)) break;
    const std::uint64_t dur_us = MonotonicMicros() - start_us;
    measured_us += dur_us;
    round_ms.push_back(static_cast<double>(dur_us) * 1e-3);
    if (t->transport == nullptr) {
      for (std::size_t s = 0; s < shard_busy_s.size(); ++s) {
        shard_busy_s[s] += t->sharded->server().aggregate_seconds(s);
      }
    }
    if (t->sim->global_round() == check_round) {
      TakeCheckpoint(*t, pool.get(), report);
    }
  }
  if (!report.has_quality) {
    report.Fail("checkpoint: training ended at round " +
                std::to_string(t->sim->global_round()) + " before round " +
                std::to_string(check_round));
  }

  const double peak_rss_mb = PeakRssMiB();
  const auto rounds = static_cast<double>(round_ms.size());
  report.attempted = round_ms.size();
  report.failed = t->sim->engine().fault_stats().skipped_rounds - skipped0;

  // Per-layer metrics: both engines time their stages themselves
  // (fedrec_stage_us); a stage one engine does not run reads 0.
  const bool sharded = t->sharded != nullptr;
  auto per_round_ms = [&](auto us) {
    return static_cast<double>(us) * 1e-3 / rounds;
  };
  auto stage_us = [&](std::string_view stage) {
    const auto i = std::find(std::begin(kEngineStages),
                             std::end(kEngineStages), stage) -
                   std::begin(kEngineStages);
    return static_cast<double>(stages[static_cast<std::size_t>(i)].TotalUs());
  };
  auto attributed_us = static_cast<double>(begin_epoch_us);
  for (const StageSeries& stage : stages) attributed_us += stage.TotalUs();
  const auto attack_us =
      static_cast<double>(t->attack->busy_us() - attack_us0);
  const std::uint64_t attack_calls = t->attack->calls() - attack_calls0;
  const auto calls = static_cast<double>(attack_calls);
  report.AddLayer("attack.produce_ms",
                  attack_calls > 0 ? attack_us * 1e-3 / calls : 0.0, "ms");
  report.AddLayer("attack.calls", calls, "count");
  report.AddLayer("attack.share_pct",
                  100.0 * attack_us / static_cast<double>(measured_us), "%");
  report.AddLayer("fed.local_train_ms", per_round_ms(stage_us("local_train")),
                  "ms");
  report.AddLayer("fed.begin_epoch_ms", per_round_ms(begin_epoch_us), "ms");
  report.AddLayer("fed.aggregate_ms", per_round_ms(stage_us("aggregate")),
                  "ms");
  report.AddLayer("model.apply_ms", per_round_ms(stage_us("apply")), "ms");
  report.AddLayer("shard.route_ms", per_round_ms(stage_us("route")), "ms");
  report.AddLayer("shard.aggregate_ms",
                  per_round_ms(stage_us("shard_aggregate")), "ms");
  report.AddLayer("shard.merge_ms", per_round_ms(stage_us("merge")), "ms");
  double busiest_shard_us = 0.0;
  if (t->transport != nullptr) {
    busiest_shard_us = static_cast<double>(t->transport->BusiestShardUs());
  } else if (sharded) {
    busiest_shard_us =
        *std::max_element(shard_busy_s.begin(), shard_busy_s.end()) * 1e6;
  }
  report.AddLayer("shard.slowest_shard_ms", per_round_ms(busiest_shard_us),
                  "ms");
  const FaultStats wire = sharded ? t->sharded->wire_fault_stats() : wire0;
  report.AddLayer("shard.retries",
                  static_cast<double>(wire.shard_retries - wire0.shard_retries),
                  "count");
  report.AddLayer("shard.outages",
                  static_cast<double>(wire.shard_outages - wire0.shard_outages),
                  "count");
  report.AddLayer(
      "shard.fallbacks",
      static_cast<double>(wire.fallback_shards - wire0.fallback_shards),
      "count");
  double first_try_ok = sharded ? 1.0 : 0.0;  // the infallible path never fails
  if (t->transport != nullptr) {
    const std::uint64_t deliveries = t->transport->deliveries();
    first_try_ok = static_cast<double>(t->transport->first_try_ok()) /
                   static_cast<double>(std::max<std::uint64_t>(deliveries, 1));
  }
  report.AddLayer("shard.first_try_ok_ratio", first_try_ok, "ratio");
  const std::uint64_t wire_bytes =
      sharded ? t->sharded->server().stats().upload_bytes - wire_bytes0 : 0;
  report.AddLayer("shard.wire_kb_per_round",
                  static_cast<double>(wire_bytes) / 1024.0 / rounds, "KiB");
  report.AddLayer(
      "shard.allocs_per_round",
      static_cast<double>(SparseAllocationCount() - allocs0) / rounds,
      "count");
  for (const char* name :
       {"service.close_ms", "service.fanin_ms", "net.client_flush_ms"}) {
    report.AddLayer(name, 0.0, "ms");
  }
  report.AddLayer("net.bytes_up_per_round", 0.0, "B");
  report.AddLayer("net.bytes_down_per_round", 0.0, "B");
  report.AddLayer("net.shard_roundtrip_ms", 0.0, "ms");
  report.AddLayer("attributed_pct",
                  100.0 * attributed_us / static_cast<double>(measured_us),
                  "%");

  // The other set-ups only time set-up. They run after the measured phase,
  // so what they leave in the heap stays out of its peak RSS, and their
  // spans stay out of its trace.
  obs::TraceRing::Global().Disable();
  t.reset();
  for (std::size_t rep = 1; rep < options.setup_reps; ++rep) {
    SetUp(spec, options, epochs, pool.get(), setup);
  }
  AddEndToEndMetrics(report, round_ms, Median(setup.total_s), peak_rss_mb);
  setup.AddMetrics(report);
  return report;
}

}  // namespace fedrec::benchmark
