/// Fault-tolerance quality: FedRecAttack on ml-100k under deterministic
/// client dropout (common/fault.h) in {0, 5, 20, 50}% with the
/// degraded-aggregation quorum active. Reports ER@k / NDCG (does partial
/// participation blunt the attack?), the fault ledger (dropped uploads,
/// skipped rounds) and rounds/s. The shard-outage path is measured by the
/// `faults_ml100k_s2` workload in benchmark/.
///
///   ./bench_fault_rounds [--quick] [--csv=path]

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace fedrec {
namespace {

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  flags.Parse(argc, argv).CheckOK();
  BenchOptions options = ParseBenchOptions(flags);
  auto pool = MakePool(options);

  const std::vector<double> dropouts = {0.0, 0.05, 0.20, 0.50};

  TextTable table(
      "Fault tolerance: FedRecAttack under client dropout (ml-100k, rho=5%, "
      "quorum=1)");
  table.SetHeader({"Metric", "drop=0%", "drop=5%", "drop=20%", "drop=50%"});

  std::vector<ExperimentResult> results;
  for (double dropout : dropouts) {
    ExperimentSpec spec;
    spec.dataset = "ml-100k";
    spec.attack = "fedrecattack";
    spec.faults.dropout_rate = dropout;
    spec.faults.fault_seed = 71;
    spec.min_round_quorum = 1;
    ApplyScale(options, spec);
    results.push_back(RunExperiment(spec, pool.get()));
  }

  std::vector<std::string> er5{"ER@5"}, er10{"ER@10"}, ndcg{"NDCG@10"};
  std::vector<std::string> dropped{"dropped uploads"}, skipped{"skipped rounds"};
  for (const ExperimentResult& r : results) {
    er5.push_back(Fmt4(r.final_metrics.er_at[0]));
    er10.push_back(Fmt4(r.final_metrics.er_at[1]));
    ndcg.push_back(Fmt4(r.final_metrics.ndcg));
    std::uint64_t total_dropped = 0;
    std::uint64_t total_skipped = 0;
    for (const EpochRecord& record : r.history) {
      total_dropped += record.dropped_uploads;
      total_skipped += record.skipped_rounds;
    }
    dropped.push_back(std::to_string(total_dropped));
    skipped.push_back(std::to_string(total_skipped));
  }
  table.AddRow(er5);
  table.AddRow(er10);
  table.AddRow(ndcg);
  table.AddRow(dropped);
  table.AddRow(skipped);
  AddThroughputRow(table, results);

  EmitTable(table, options);
  std::puts(
      "(full FedRecAttack runs with the quorum-degraded aggregator; a dropped "
      "client skips its upload for the round.)");
  return 0;
}

}  // namespace
}  // namespace fedrec

int main(int argc, char** argv) { return fedrec::Main(argc, argv); }
