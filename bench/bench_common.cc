#include "bench_common.h"

#include <algorithm>
#include <cstdio>

#include "attack/target_select.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/public_view.h"
#include "data/synthetic.h"

namespace fedrec {

ExperimentResult RunExperiment(const ExperimentSpec& spec, ThreadPool* pool) {
  Stopwatch timer;

  Result<Dataset> dataset = GenerateByName(spec.dataset, spec.seed, spec.scale);
  dataset.status().CheckOK();
  const Dataset& full = dataset.value();

  Rng rng(spec.seed + 1);
  LeaveOneOutSplit split = SplitLeaveOneOut(full, rng);

  // Attacker prior knowledge D' (kCeil ensures xi > 0 exposes every user a
  // little, mirroring the paper's per-user exposure of xi of V+_i).
  const PublicInteractions view = PublicInteractions::Sample(
      split.train, spec.xi, rng, PublicSamplingMode::kCeil);

  Rng target_rng(spec.seed + 2);
  const std::vector<std::uint32_t> targets = SelectTargetItems(
      split.train, spec.num_targets, TargetSelection::kUnpopular, target_rng);

  FedConfig config;
  config.model.dim = spec.dim;
  config.model.learning_rate = spec.learning_rate;
  config.clients_per_round = spec.clients_per_round;
  config.epochs = spec.epochs;
  config.clip_norm = spec.clip_norm;
  config.noise_scale = spec.noise_scale;
  config.aggregator.kind = spec.aggregator;
  config.seed = spec.seed + 3;
  config.faults = spec.faults;
  config.min_round_quorum = spec.min_round_quorum;

  AttackOptions attack_options;
  attack_options.kind = spec.attack;
  attack_options.target_items = targets;
  attack_options.kappa = spec.kappa;
  attack_options.clip_norm = spec.clip_norm;
  attack_options.step_size = spec.zeta;
  attack_options.rec_k = spec.rec_k;
  attack_options.users_per_step = spec.users_per_step;
  attack_options.boost = spec.boost;
  attack_options.z_max = spec.z_max;
  attack_options.alignment = spec.alignment;
  attack_options.seed = spec.seed + 4;

  AttackInputs inputs;
  inputs.train = &split.train;
  inputs.public_view = &view;
  inputs.num_benign_users = split.train.num_users();
  inputs.dim = spec.dim;

  Result<std::unique_ptr<MaliciousCoordinator>> attack =
      CreateAttack(attack_options, inputs);
  attack.status().CheckOK();

  const std::size_t num_malicious =
      attack.value() == nullptr
          ? 0
          : static_cast<std::size_t>(
                spec.rho * static_cast<double>(split.train.num_users()) + 0.5);

  MetricsConfig metrics_config;
  metrics_config.er_ks = {5, 10};
  metrics_config.ndcg_k = 10;
  metrics_config.hr_k = 10;
  metrics_config.hr_negatives = 99;
  Evaluator evaluator(split.train, split.test_items, metrics_config,
                      spec.seed + 5);

  Simulation sim(split.train, config, num_malicious, attack.value().get(), pool);
  const std::size_t cadence =
      spec.eval_every == 0 ? spec.epochs : spec.eval_every;
  std::vector<EpochRecord> history = sim.Run(&evaluator, targets, cadence);

  ExperimentResult result;
  result.stats = ComputeStats(full);
  result.history = std::move(history);
  for (auto it = result.history.rbegin(); it != result.history.rend(); ++it) {
    if (it->has_metrics) {
      result.final_metrics = it->metrics;
      break;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  result.num_malicious = num_malicious;
  result.target_items = targets;
  for (const EpochRecord& record : result.history) {
    result.total_rounds += record.rounds;
    result.train_seconds += record.train_seconds;
  }
  result.rounds_per_sec =
      result.train_seconds > 0.0
          ? static_cast<double>(result.total_rounds) / result.train_seconds
          : 0.0;
  return result;
}

BenchOptions ParseBenchOptions(const FlagParser& flags) {
  BenchOptions options;
  if (flags.GetBool("quick", false)) {
    options.scale_ml100k = 0.25;
    options.scale_ml1m = 0.06;
    options.scale_steam = 0.10;
    options.epochs = 60;
  }
  if (flags.GetBool("full", false)) {
    options.scale_ml100k = 1.0;
    options.scale_ml1m = 1.0;
    options.scale_steam = 1.0;
    options.epochs = 200;
    options.full = true;
  }
  if (flags.Has("scale")) {
    const double scale = flags.GetDouble("scale", 1.0);
    options.scale_ml100k = scale;
    options.scale_ml1m = scale;
    options.scale_steam = scale;
  }
  options.epochs = static_cast<std::size_t>(
      flags.GetInt("epochs", static_cast<long long>(options.epochs)));
  options.threads =
      static_cast<std::size_t>(flags.GetInt("threads", 0));
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  options.csv_path = flags.GetString("csv", "");
  return options;
}

void ApplyScale(const BenchOptions& options, ExperimentSpec& spec) {
  if (spec.dataset == "ml-100k") {
    spec.scale = options.scale_ml100k;
  } else if (spec.dataset == "ml-1m") {
    spec.scale = options.scale_ml1m;
  } else {
    spec.scale = options.scale_steam;
  }
  // Shrink the round size with the dataset so the number of training rounds
  // per epoch — and with it the number of poisoned updates the attacker can
  // inject over a run — matches the full-scale dynamics of the paper.
  spec.clients_per_round = std::max<std::size_t>(
      8, static_cast<std::size_t>(64.0 * spec.scale + 0.5));
  spec.epochs = options.epochs;
  spec.seed = options.seed;
}

std::string Fmt4(double value) { return FormatDouble(value, 4); }

void AddThroughputRow(TextTable& table,
                      const std::vector<ExperimentResult>& results) {
  std::vector<std::string> row{"rounds/s"};
  for (const ExperimentResult& result : results) {
    row.push_back(FormatDouble(result.rounds_per_sec, 1));
  }
  table.AddRow(row);
}

void EmitTable(const TextTable& table, const BenchOptions& options) {
  std::fputs(table.Render().c_str(), stdout);
  std::fflush(stdout);
  if (!options.csv_path.empty()) {
    const Status status = WriteStringToFile(options.csv_path, table.RenderCsv());
    if (!status.ok()) {
      FEDREC_LOG(Error) << "csv export failed: " << status.ToString();
    } else {
      FEDREC_LOG(Info) << "wrote " << options.csv_path;
    }
  }
}

std::unique_ptr<ThreadPool> MakePool(const BenchOptions& options) {
  const std::size_t threads =
      options.threads == 0 ? DefaultThreadCount() : options.threads;
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

}  // namespace fedrec
