#ifndef FEDREC_BENCH_BENCH_COMMON_H_
#define FEDREC_BENCH_BENCH_COMMON_H_

#include <optional>
#include <string>
#include <vector>

#include "attack/attack_factory.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "data/stats.h"
#include "fed/simulation.h"
#include "model/metrics.h"

/// \file
/// Shared experiment runner for the paper-reproduction benchmarks. Every
/// bench binary builds an ExperimentSpec per table cell, calls RunExperiment,
/// and renders the resulting rows in the paper's table layout.
///
/// Scale presets: all binaries accept --quick / --full / --scale=<f>,
/// --epochs=<n>, --seed=<n>, --threads=<n> and --csv=<path>. The default
/// preset is sized so the full bench suite finishes in minutes on a laptop;
/// --full reproduces the paper-scale parameters (full datasets, 200 epochs).

namespace fedrec {

/// One experiment = one dataset + one protocol config + one attack.
struct ExperimentSpec {
  std::string dataset = "ml-100k";  ///< preset name for data/synthetic.h
  double scale = 1.0;               ///< dataset down-scale factor
  std::uint64_t seed = 42;

  // Protocol (paper defaults: k=32, eta=0.01, C=1, 200 epochs).
  std::size_t dim = 32;
  float learning_rate = 0.01f;
  std::size_t clients_per_round = 64;
  std::size_t epochs = 200;
  float clip_norm = 1.0f;
  float noise_scale = 0.0f;
  AggregatorKind aggregator = AggregatorKind::kSum;

  // Attack (paper defaults: xi=1%, rho=5%, kappa=60, zeta=1).
  std::string attack = "none";
  double xi = 0.01;
  double rho = 0.05;
  std::size_t kappa = 60;
  float zeta = 1.0f;
  std::size_t rec_k = 10;
  std::size_t num_targets = 1;
  std::size_t users_per_step = 256;  ///< attack SGD user subsample (0 = all)
  float boost = 4.0f;                ///< EB/P3/PipAttack amplification
  float z_max = 1.5f;                ///< P4
  float alignment = 1.0f;            ///< PipAttack

  /// Evaluate every N epochs (0 = final epoch only). Fig. 3 uses a cadence.
  std::size_t eval_every = 0;

  // Fault injection (bench_fault_rounds): deterministic dropout/straggler/
  // corruption schedule plus the degraded-aggregation quorum. Inert by
  // default, so the paper-table benches are untouched.
  FaultSpec faults;
  std::size_t min_round_quorum = 1;
};

/// Outcome of one experiment.
struct ExperimentResult {
  DatasetStats stats;
  MetricsResult final_metrics;       ///< ER@5, ER@10, NDCG@10, HR@10
  std::vector<EpochRecord> history;  ///< per-epoch loss (+ metrics on cadence)
  double seconds = 0.0;
  std::size_t num_malicious = 0;
  std::vector<std::uint32_t> target_items;

  // Round-throughput instrumentation aggregated over `history`.
  std::size_t total_rounds = 0;
  double train_seconds = 0.0;        ///< summed epoch training wall time
  double rounds_per_sec = 0.0;       ///< total_rounds / train_seconds
};

/// Runs one full federated-training experiment under the configured attack.
ExperimentResult RunExperiment(const ExperimentSpec& spec, ThreadPool* pool);

/// Scale presets shared by all bench binaries.
struct BenchOptions {
  double scale_ml100k = 0.45;
  double scale_ml1m = 0.12;
  double scale_steam = 0.18;
  std::size_t epochs = 100;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  std::uint64_t seed = 42;
  std::string csv_path;     ///< optional CSV export
  bool full = false;
};

/// Parses --quick/--full/--scale/--epochs/--seed/--threads/--csv.
BenchOptions ParseBenchOptions(const FlagParser& flags);

/// Applies the per-dataset scale from `options` to `spec`.
void ApplyScale(const BenchOptions& options, ExperimentSpec& spec);

/// Formats a metric like the paper tables ("0.9400").
std::string Fmt4(double value);

/// Appends a "rounds/s" row (one cell per experiment, in order) so every
/// table bench surfaces its round throughput in the printed table and the
/// CSV export.
void AddThroughputRow(TextTable& table,
                      const std::vector<ExperimentResult>& results);

/// Prints the table to stdout and optionally writes its CSV export.
void EmitTable(const TextTable& table, const BenchOptions& options);

/// Creates the worker pool for `options` (may return null for 1 thread).
std::unique_ptr<ThreadPool> MakePool(const BenchOptions& options);

}  // namespace fedrec

#endif  // FEDREC_BENCH_BENCH_COMMON_H_
