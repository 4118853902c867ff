/// Sharded-federation server throughput: the cost of one round's server step
/// (route uploads over the wire -> per-shard aggregate -> per-shard delta
/// wire -> sorted-union merge -> apply) through the src/shard layer, against
/// the single-server sparse path, across shard counts {1, 2, 4, 8}.
///
/// Two figures per configuration:
///
/// * wall r/s     — measured wall-clock rounds/s on THIS host (with the
///                  worker pool; on a single-core container the shards
///                  timeshare, so wall stays ~flat with S).
/// * crit r/s     — critical-path rounds/s: coordinator-serial work (the
///                  serial round's wall time minus every shard's own route
///                  + aggregate time) plus the SLOWEST shard's route +
///                  aggregate time, measured per shard under serial
///                  execution. This is the per-round latency an S-worker
///                  deployment pays, and the scaling-with-shard-workers
///                  figure on any host.
///
/// Steady-state sparse-container + wire-buffer allocations per round are
/// reported via the counting hook (zero = the allocation-free wire path).
///
///   ./bench_sharded_rounds [--quick] [--clients=64] [--rows=120]
///                          [--policy=hashed|contiguous] [--csv=path]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "shard/shard_plan.h"
#include "shard/transport.h"

namespace fedrec {
namespace {

std::vector<ClientUpdate> MakeUpdates(std::size_t clients, std::size_t rows,
                                      std::size_t num_items, std::size_t dim,
                                      Rng& rng) {
  std::vector<ClientUpdate> updates;
  updates.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    ClientUpdate update;
    update.user = static_cast<std::uint32_t>(c);
    update.item_gradients = SparseRowMatrix(dim);
    for (std::size_t r = 0; r < rows; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(num_items));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.05));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

struct ShardedMeasurement {
  double wall_rps = 0.0;
  double crit_rps = 0.0;
  double wire_kb_per_round = 0.0;
  double allocs_per_round = 0.0;
};

/// Runs the full sharded server step — one ServerRound over an in-process
/// transport — for at least `min_seconds`. When `pool` is null the shards
/// execute serially, which keeps the per-shard timers clean of timesharing
/// noise — that is the critical-path configuration.
ShardedMeasurement MeasureSharded(const std::vector<ClientUpdate>& updates,
                                  const ShardPlan& plan, std::size_t dim,
                                  const AggregatorOptions& options,
                                  MfModel& model, float lr, ThreadPool* pool,
                                  double min_seconds) {
  InProcessShardTransport transport(plan, dim);
  const ShardServer& server = transport.server();
  ServerRound server_round;
  FaultStats ledger;
  std::uint64_t round = 0;
  const auto step = [&](double* crit_seconds) {
    Stopwatch round_timer;
    server_round.Run(transport, updates, options, ShardRetryPolicy{}, round++,
                     lr, model, pool, ledger);
    const double round_seconds = round_timer.ElapsedSeconds();
    if (crit_seconds != nullptr) {
      double shard_sum = 0.0;
      double slowest_shard = 0.0;
      for (std::size_t s = 0; s < plan.num_shards(); ++s) {
        const double shard_seconds =
            server.route_seconds(s) + server.aggregate_seconds(s);
        shard_sum += shard_seconds;
        slowest_shard = std::max(slowest_shard, shard_seconds);
      }
      *crit_seconds += round_seconds - shard_sum + slowest_shard;
    }
  };
  step(nullptr);  // warm the high-water buffers (and the page faults)
  step(nullptr);

  ResetSparseAllocationCount();
  const std::uint64_t stats_rounds_before = server.stats().rounds;
  const std::uint64_t bytes_before =
      server.stats().upload_bytes + server.stats().delta_bytes;
  double crit_seconds = 0.0;
  Stopwatch timer;
  std::size_t iterations = 0;
  do {
    step(&crit_seconds);
    ++iterations;
  } while (timer.ElapsedSeconds() < min_seconds);
  const double wall = timer.ElapsedSeconds();

  ShardedMeasurement result;
  result.wall_rps = static_cast<double>(iterations) / wall;
  result.crit_rps = static_cast<double>(iterations) / crit_seconds;
  result.allocs_per_round = static_cast<double>(SparseAllocationCount()) /
                            static_cast<double>(iterations);
  const std::uint64_t rounds =
      server.stats().rounds - stats_rounds_before;
  result.wire_kb_per_round =
      static_cast<double>(server.stats().upload_bytes +
                          server.stats().delta_bytes - bytes_before) /
      static_cast<double>(rounds) / 1024.0;
  return result;
}

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  flags.Parse(argc, argv).CheckOK();
  BenchOptions options = ParseBenchOptions(flags);
  const bool quick = flags.GetBool("quick", false);
  const double min_seconds = quick ? 0.08 : 0.30;
  const std::size_t clients =
      static_cast<std::size_t>(flags.GetInt("clients", 64));
  const std::size_t rows = static_cast<std::size_t>(flags.GetInt("rows", 120));
  const std::size_t dim = 32;
  const float lr = 0.01f;
  const std::string policy_name = flags.GetString("policy", "hashed");
  const ShardPolicy policy = policy_name == "contiguous"
                                 ? ShardPolicy::kContiguousRange
                                 : ShardPolicy::kHashed;

  const std::vector<std::size_t> item_scales = {1682, 16820, 67280};
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  const std::vector<std::pair<AggregatorKind, const char*>> rules = {
      {AggregatorKind::kSum, "sum"},
      {AggregatorKind::kMedian, "median"},
  };
  auto pool = MakePool(options);

  TextTable table(
      "Sharded federation server step (" + std::to_string(clients) +
      " clients x " + std::to_string(rows) + " rows, dim=32, policy=" +
      std::string(ShardPolicyToString(policy)) +
      "): wall vs critical-path rounds/s");
  std::vector<std::string> header{"Rule / path"};
  for (std::size_t num_items : item_scales) {
    header.push_back("items=" + std::to_string(num_items));
  }
  table.SetHeader(header);

  std::vector<std::string> smoke_row{"rounds/s"};
  std::vector<std::string> wire_row{"wire KB/round (S=4)"};
  std::vector<std::string> allocs_row{"allocs/round steady (S=4)"};

  for (const auto& [kind, name] : rules) {
    AggregatorOptions agg;
    agg.kind = kind;
    std::vector<std::string> single_row{std::string(name) + " single-server r/s"};
    std::vector<std::string> wall_row{std::string(name) + " sharded wall S=4 r/s"};
    std::vector<std::vector<std::string>> crit_rows;
    for (std::size_t shards : shard_counts) {
      crit_rows.push_back({std::string(name) + " crit-path S=" +
                           std::to_string(shards) + " r/s"});
    }
    std::vector<std::string> scaling_row{std::string(name) +
                                         " crit scaling S8/S1"};

    for (std::size_t num_items : item_scales) {
      Rng rng(42);
      const auto updates = MakeUpdates(clients, rows, num_items, dim, rng);
      MfHyperParams params;
      params.dim = dim;
      MfModel model(num_items, params, rng);
      Matrix& items = model.item_factors();

      // Single-server baseline: the PR 3/4 sparse path, serial.
      AggregationWorkspace workspace;
      SparseRoundDelta delta;
      AggregateUpdates(updates, dim, agg, workspace, delta);  // warm
      Stopwatch timer;
      std::size_t iterations = 0;
      do {
        AggregateUpdates(updates, dim, agg, workspace, delta);
        delta.AddTo(items, -lr);
        ++iterations;
      } while (timer.ElapsedSeconds() < min_seconds);
      single_row.push_back(
          FormatDouble(static_cast<double>(iterations) / timer.ElapsedSeconds(), 1));

      double crit_s1 = 0.0;
      double crit_s8 = 0.0;
      for (std::size_t si = 0; si < shard_counts.size(); ++si) {
        const ShardPlan plan(num_items, shard_counts[si], policy);
        const ShardedMeasurement serial = MeasureSharded(
            updates, plan, dim, agg, model, lr, nullptr, min_seconds);
        crit_rows[si].push_back(FormatDouble(serial.crit_rps, 1));
        if (shard_counts[si] == 1) crit_s1 = serial.crit_rps;
        if (shard_counts[si] == 8) crit_s8 = serial.crit_rps;
        if (shard_counts[si] == 4) {
          const ShardedMeasurement pooled = MeasureSharded(
              updates, plan, dim, agg, model, lr, pool.get(), min_seconds);
          wall_row.push_back(FormatDouble(pooled.wall_rps, 1));
          if (kind == AggregatorKind::kSum) {
            smoke_row.push_back(FormatDouble(pooled.wall_rps, 1));
            wire_row.push_back(FormatDouble(serial.wire_kb_per_round, 1));
            allocs_row.push_back(FormatDouble(serial.allocs_per_round, 3));
          }
        }
      }
      scaling_row.push_back(FormatDouble(crit_s8 / crit_s1, 2) + "x");
    }
    table.AddRow(single_row);
    table.AddRow(wall_row);
    for (const auto& crit_row : crit_rows) table.AddRow(crit_row);
    table.AddRow(scaling_row);
    table.AddSeparator();
  }
  table.AddRow(wire_row);
  table.AddRow(allocs_row);
  table.AddRow(smoke_row);

  EmitTable(table, options);
  std::puts(
      "(single-server = sparse AggregateUpdates + sparse apply, serial. "
      "sharded = FRWU-route uploads to S shard inboxes, per-shard aggregate, "
      "FRWD delta wire, sorted-union merge, apply, as one ServerRound. wall = "
      "this host with the pool; crit-path = the serial round minus every "
      "shard's route+aggregate, plus the slowest shard's, i.e. the per-round "
      "latency of an S-worker deployment. allocs = sparse-container + "
      "wire-buffer heap growths per steady-state round; 0 = allocation-free "
      "wire path)");
  return 0;
}

}  // namespace
}  // namespace fedrec

int main(int argc, char** argv) { return fedrec::Main(argc, argv); }
