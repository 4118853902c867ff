/// Reproduces the paper's evidence, one table per run:
///
///   bench_paper <table> [--quick | --full | --scale=<f>] [--epochs=<n>]
///               [--seed=<n>] [--threads=<n>] [--csv=<path>] [table flags]
///
/// The table name goes first (run with none to list them). Tables III-IX,
/// the fault table and the defense table are entries of PaperTables(),
/// rendered by one grid renderer; Table II (dataset sizes) and Fig. 3
/// (per-epoch series) are the two special cases. Table flags: --xi (table3),
/// --rho (table4, table6, table7, table8, fig3) and --kappa (table5) replace
/// the swept values; --z sets the defense table's detector threshold and
/// --eval-every Fig. 3's evaluation cadence. A flag the chosen table does
/// not read is an error: the run exits 2 and names it.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

#include "common/string_util.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "fed/detector.h"

namespace fedrec {
namespace {

const std::vector<std::string> kAllDatasets{"ml-100k", "ml-1m", "steam-200k"};

/// What a table can report of one experiment. The detector columns are the
/// mean recall and false-positive rate over the rounds that carried
/// malicious uploads.
struct Cell {
  double er5 = 0.0;
  double er10 = 0.0;
  double ndcg10 = 0.0;
  double hr10 = 0.0;
  double detector_recall = 0.0;
  double detector_fpr = 0.0;
  double dropped_uploads = 0.0;
  double skipped_rounds = 0.0;
  double rounds_per_sec = 0.0;
};

/// A value a table reports per experiment, printed with `decimals` digits.
struct Metric {
  const char* name;
  double Cell::*value;
  int decimals;
};

const Metric kEr5{"ER@5", &Cell::er5, 4};
const Metric kEr10{"ER@10", &Cell::er10, 4};
const Metric kNdcg10{"NDCG@10", &Cell::ndcg10, 4};
const Metric kHr10{"HR@10", &Cell::hr10, 4};
const Metric kDetectorRecall{"Detector recall", &Cell::detector_recall, 4};
const Metric kDetectorFpr{"Detector FPR", &Cell::detector_fpr, 4};
const Metric kDroppedUploads{"dropped uploads", &Cell::dropped_uploads, 0};
const Metric kSkippedRounds{"skipped rounds", &Cell::skipped_rounds, 0};
const Metric kRoundsPerSec{"rounds/s", &Cell::rounds_per_sec, 1};

std::string FormatCell(const Metric& metric, const Cell& cell) {
  return FormatDouble(cell.*metric.value, metric.decimals);
}

void SetXi(ExperimentSpec& spec, double xi) {
  spec.xi = xi;
}

void SetRho(ExperimentSpec& spec, double rho) {
  spec.rho = rho;
}

void SetKappa(ExperimentSpec& spec, double kappa) {
  spec.kappa = static_cast<std::size_t>(kappa);
}

void SetDropout(ExperimentSpec& spec, double dropout) {
  spec.faults.dropout_rate = dropout;
}

/// The ExperimentSpec field a table sweeps across its columns: the prefix
/// of its column labels and how a value is set.
struct Swept {
  const char* label;
  bool percent;  ///< label the value as a percentage, not an integer
  void (*apply)(ExperimentSpec& spec, double value);
};

const Swept kXi{"xi=", true, SetXi};
const Swept kRho{"rho=", true, SetRho};
const Swept kKappa{"k=", false, SetKappa};
const Swept kDropout{"drop=", true, SetDropout};

/// The column label of one swept value: "xi=0.5%", "k=60", "drop=20%".
std::string ColumnLabel(const Swept& swept, double value) {
  std::string label = swept.label;
  label += swept.percent ? FormatPercent(value) : FormatDouble(value, 0);
  return label;
}

/// kMetricRows: one row per metric and one column per swept value (Tables
/// III-V, IX, faults). kMetricCells: one row per experiment key and one
/// column per (swept value, metric) pair (Tables VI-VIII, defenses).
enum class Layout { kMetricRows, kMetricCells };

struct Aggregator {
  const char* label;
  AggregatorKind kind;
};

const Aggregator kSum{"sum (Eq. 7)", AggregatorKind::kSum};

/// One paper table. Rows run over every dataset x attack x aggregator; a
/// dimension with more than one entry gets its own key column. Most tables
/// run FedRecAttack on ML-100K under the paper's sum rule.
struct TableSpec {
  const char* name;  ///< the bench_paper selector
  const char* title;
  std::vector<std::string> datasets{"ml-100k"};
  std::vector<std::string> attacks{"fedrecattack"};
  std::vector<Aggregator> aggregators{kSum};
  const Swept* swept = nullptr;  ///< null: one unlabelled column group
  std::vector<double> values{};  ///< the swept field's default columns
  const char* flag = nullptr;    ///< its override flag, if the table has one
  Layout layout;
  std::vector<Metric> metrics;
  const char* paper;  ///< the paper's numbers, printed under the table
  ExperimentSpec base{};        ///< fields every cell shares
  bool screen_uploads = false;  ///< score every round with the detector
};

std::vector<TableSpec> PaperTables() {
  const std::vector<Metric> exposure{kEr5, kEr10, kNdcg10};
  return {
      // Expected shape: already highly effective at xi = 1%, saturating fast.
      {.name = "table3",
       .title = "Table III: impact of xi on FedRecAttack (ml-100k, rho=5%, "
                "kappa=60)",
       .swept = &kXi,
       .values = {0.01, 0.02, 0.03, 0.05, 0.10},
       .flag = "xi",
       .layout = Layout::kMetricRows,
       .metrics = {kEr5, kEr10, kNdcg10, kRoundsPerSec},
       .paper = "(paper ER@5 row: 0.9400 0.9818 0.9882 0.9936 0.9914)"},
      // Expected shape: near-zero effect at rho <= 2%, a sharp jump at 3%,
      // near-saturation from 5%.
      {.name = "table4",
       .title = "Table IV: impact of rho on FedRecAttack (ml-100k, xi=1%, "
                "kappa=60)",
       .swept = &kRho,
       .values = {0.01, 0.02, 0.03, 0.05, 0.10},
       .flag = "rho",
       .layout = Layout::kMetricRows,
       .metrics = exposure,
       .paper = "(paper ER@5 row: 0.0011 0.0043 0.6902 0.9400 0.9475)"},
      // Expected shape: flat in kappa (the gradient mass concentrates on few
      // rows anyway).
      {.name = "table5",
       .title = "Table V: impact of kappa on FedRecAttack (ml-100k, xi=1%, "
                "rho=5%)",
       .swept = &kKappa,
       .values = {20, 40, 60, 80, 100},
       .flag = "kappa",
       .layout = Layout::kMetricRows,
       .metrics = exposure,
       .paper = "(paper ER@5 row: 0.9475 0.9464 0.9400 0.9507 0.9453)"},
      // Expected shape: P1/P2 never exceed a few percent ER@10 even with full
      // knowledge of D, while FedRecAttack (xi = 1% only) explodes past
      // rho >= 3%.
      {.name = "table6",
       .title = "Table VI: ER@10 of FedRecAttack vs data poisoning (ml-100k)",
       .attacks = {"none", "p1", "p2", "fedrecattack"},
       .swept = &kRho,
       .values = {0.005, 0.01, 0.03, 0.05},
       .flag = "rho",
       .layout = Layout::kMetricCells,
       .metrics = {kEr10},
       .paper = "(paper rows: None 0/0/0/0; P1 .0001/.0002/.0014/.0033;"
                " P2 .0007/.0019/.0111/.0206; FedRecAttack"
                " .0000/.0011/.7449/.9475)"},
      // Expected shape: shilling baselines near zero on the dense MovieLens
      // data, Popular/Bandwagon waking up on the sparser Steam, FedRecAttack
      // dominant everywhere.
      {.name = "table7",
       .title = "Table VII: effectiveness of attacks (ER@5 / ER@10 / NDCG@10)",
       .datasets = kAllDatasets,
       .attacks = {"none", "random", "bandwagon", "popular", "fedrecattack"},
       .swept = &kRho,
       .values = {0.03, 0.05, 0.10},
       .flag = "rho",
       .layout = Layout::kMetricCells,
       .metrics = exposure,
       .paper = "(paper, rho=5%: ml-100k FedRecAttack .9400/.9475/.9411 vs"
                " baselines <= .0021; steam Popular .7165/.7639/.6908,"
                " FedRecAttack .9835/.9848/.9831)"},
      // Expected shape: the baselines damage HR@10 visibly while their ER@5
      // is erratic across rho; FedRecAttack keeps HR@10 near the None level
      // with consistently high ER@5. The crude baselines run with strong
      // amplification, as in the settings of [31] the paper adopts here.
      {.name = "table8",
       .title = "Table VIII: HR@10 and ER@5 vs model poisoning (ml-1m)",
       .datasets = {"ml-1m"},
       .attacks = {"none", "p3", "p4", "eb", "pipattack", "fedrecattack"},
       .swept = &kRho,
       .values = {0.10, 0.20, 0.30, 0.40},
       .flag = "rho",
       .layout = Layout::kMetricCells,
       .metrics = {kHr10, kEr5},
       .paper = "(paper, rho=10%: None .5940/-; P3 .4434/.0000; P4"
                " .4392/.0000; EB .4432/.0000; PipAttack .4384/.9513;"
                " FedRecAttack .5901/.9689)",
       .base = {.boost = 8.0f}},
      // Expected shape: highly effective with 1% public interactions, a
      // complete collapse without any (Eq. 19 is impossible at xi = 0).
      {.name = "table9",
       .title = "Table IX: FedRecAttack with & without public interactions",
       .datasets = kAllDatasets,
       .swept = &kXi,
       .values = {0.01, 0.0},
       .layout = Layout::kMetricRows,
       .metrics = exposure,
       .paper = "(paper: ER@5 .9400/.9659/.9835 at xi=1% vs 0.0000 at xi=0%)"},
      // Not in the paper: does partial participation blunt the attack? A
      // dropped client skips its upload; the quorum-degraded aggregator
      // runs on. The shard-outage path is the `faults_ml100k_s2` workload of
      // benchmark/.
      {.name = "faults",
       .title = "Fault tolerance: FedRecAttack under client dropout "
                "(ml-100k, rho=5%, quorum=1)",
       .swept = &kDropout,
       .values = {0.0, 0.05, 0.20, 0.50},
       .layout = Layout::kMetricRows,
       .metrics = {kEr5, kEr10, kNdcg10, kDroppedUploads, kSkippedRounds,
                   kRoundsPerSec},
       .paper = "(full FedRecAttack runs with the quorum-degraded aggregator;"
                " a dropped client skips its upload for the round.)",
       .base = {.faults = {.fault_seed = 71}}},
      // Extension (paper Section VI, future work): byzantine-robust
      // aggregation and a gradient-anomaly detector. The paper argues they
      // fit FR poorly: benign gradients already vary widely, and cold-item
      // rows have very few (mostly malicious) contributors.
      {.name = "defenses",
       .title = "Defense ablation (ml-100k, rho=5%): attack vs robust "
                "aggregation + anomaly detector",
       .attacks = {"fedrecattack", "eb"},
       .aggregators = {{"krum", AggregatorKind::kKrum},
                       {"median", AggregatorKind::kMedian},
                       {"norm-bound", AggregatorKind::kNormBound},
                       kSum,
                       {"trimmed-mean", AggregatorKind::kTrimmedMean}},
       .layout = Layout::kMetricCells,
       .metrics = {kEr5, kEr10, kHr10, kDetectorRecall, kDetectorFpr},
       .paper = "(expected: robust rules do not reliably stop the attack on"
                " cold rows; detector recall stays low at benign-like upload"
                " shapes)",
       .base = {.boost = 8.0f},
       .screen_uploads = true},
  };
}

Cell RunCell(const ExperimentSpec& spec, bool screen_uploads,
             double z_threshold, ThreadPool* pool) {
  double recall_sum = 0.0;
  double fpr_sum = 0.0;
  std::size_t screened_rounds = 0;
  RoundObserver screen;
  if (screen_uploads) {
    screen = [&](const std::vector<ClientUpdate>& updates,
                 const std::vector<bool>& is_malicious) {
      if (std::find(is_malicious.begin(), is_malicious.end(), true) ==
          is_malicious.end()) {
        return;
      }
      const DetectionQuality quality = EvaluateDetection(
          ScreenUploads(updates, z_threshold), is_malicious);
      recall_sum += quality.recall;
      fpr_sum += quality.false_positive_rate;
      ++screened_rounds;
    };
  }
  const ExperimentResult run = RunExperiment(spec, pool, std::move(screen));

  Cell cell;
  cell.er5 = run.final_metrics.er_at[0];
  cell.er10 = run.final_metrics.er_at[1];
  cell.ndcg10 = run.final_metrics.ndcg;
  cell.hr10 = run.final_metrics.hit_ratio;
  if (screened_rounds > 0) {
    cell.detector_recall = recall_sum / static_cast<double>(screened_rounds);
    cell.detector_fpr = fpr_sum / static_cast<double>(screened_rounds);
  }
  cell.dropped_uploads = static_cast<double>(run.dropped_uploads);
  cell.skipped_rounds = static_cast<double>(run.skipped_rounds);
  cell.rounds_per_sec = run.rounds_per_sec;
  return cell;
}

/// One row key: the experiment's dataset, attack and aggregator, and the
/// key-column labels shown for it.
struct RowKey {
  std::string dataset;
  std::string attack;
  AggregatorKind aggregator;
  std::vector<std::string> labels;
};

std::vector<RowKey> RowKeys(const TableSpec& table) {
  std::vector<RowKey> keys;
  for (const std::string& dataset : table.datasets) {
    for (const std::string& attack : table.attacks) {
      for (const Aggregator& aggregator : table.aggregators) {
        RowKey key{dataset, attack, aggregator.kind, {}};
        if (table.datasets.size() > 1) key.labels.push_back(dataset);
        if (table.attacks.size() > 1) {
          key.labels.push_back(attack == "none" ? "None" : attack);
        }
        if (table.aggregators.size() > 1) {
          key.labels.push_back(aggregator.label);
        }
        keys.push_back(std::move(key));
      }
    }
  }
  return keys;
}

/// The generic renderer of every table but II and Fig. 3.
void RunGrid(const TableSpec& table, const FlagParser& flags,
             const BenchOptions& options, ThreadPool* pool) {
  const Swept* swept = table.swept;
  // A table without a sweep has one column group, left unlabelled.
  std::vector<double> values{0.0};
  if (swept != nullptr) {
    values = table.flag == nullptr
                 ? table.values
                 : flags.GetDoubleList(table.flag, table.values);
  }
  const double z_threshold = flags.GetDouble("z", 3.5);

  std::vector<std::string> header;
  if (table.datasets.size() > 1) header.push_back("Dataset");
  if (table.attacks.size() > 1) header.push_back("Attack");
  if (table.aggregators.size() > 1) header.push_back("Aggregator");
  const std::size_t key_columns = header.size();
  if (table.layout == Layout::kMetricRows) {
    header.push_back("Metric");
    for (double value : values) {
      header.push_back(ColumnLabel(*swept, value));
    }
  } else {
    for (double value : values) {
      for (const Metric& metric : table.metrics) {
        // A lone metric is named by the title, a missing sweep by nothing.
        std::string label;
        if (table.metrics.size() > 1 || swept == nullptr) label = metric.name;
        if (swept != nullptr) {
          if (!label.empty()) label += ' ';
          label += ColumnLabel(*swept, value);
        }
        header.push_back(std::move(label));
      }
    }
  }
  TextTable out(table.title);
  out.SetHeader(header);

  // A separator parts the runs of rows that share the first key column, when
  // such a run can hold more than one row.
  const bool grouped =
      key_columns >= (table.layout == Layout::kMetricRows ? 1u : 2u);
  const std::vector<RowKey> keys = RowKeys(table);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const RowKey& key = keys[k];
    std::vector<Cell> cells;
    for (double value : values) {
      ExperimentSpec spec = table.base;
      spec.dataset = key.dataset;
      spec.attack = key.attack;
      spec.aggregator = key.aggregator;
      if (swept != nullptr) swept->apply(spec, value);
      ApplyScale(options, spec);
      cells.push_back(RunCell(spec, table.screen_uploads, z_threshold, pool));
    }
    if (table.layout == Layout::kMetricRows) {
      for (std::size_t m = 0; m < table.metrics.size(); ++m) {
        const Metric& metric = table.metrics[m];
        // The key labels its first metric row only.
        std::vector<std::string> row =
            m == 0 ? key.labels : std::vector<std::string>(key_columns);
        row.push_back(metric.name);
        for (const Cell& cell : cells) {
          row.push_back(FormatCell(metric, cell));
        }
        out.AddRow(std::move(row));
      }
    } else {
      std::vector<std::string> row = key.labels;
      for (const Cell& cell : cells) {
        for (const Metric& metric : table.metrics) {
          row.push_back(FormatCell(metric, cell));
        }
      }
      out.AddRow(std::move(row));
    }
    if (grouped && k + 1 < keys.size() &&
        keys[k + 1].labels[0] != key.labels[0]) {
      out.AddSeparator();
    }
  }
  EmitTable(out, options);
  std::puts(table.paper);
}

/// Table II: sizes of the three datasets. Runs at full scale unless --scale
/// is given: the statistics are a property of the dataset itself, and
/// synthesis is cheap. The synthetic calibration that substitutes the
/// original downloads is described in data/synthetic.h.
void RunTable2(const FlagParser& flags, const BenchOptions& options) {
  TextTable table("Table II: sizes of datasets (synthetic, calibrated)");
  table.SetHeader({"Dataset", "#users", "#items", "#interactions", "Avg.",
                   "Sparsity", "Gini(pop)", "Top-10% share"});
  const double scale = flags.Has("scale") ? flags.GetDouble("scale", 1.0) : 1.0;
  for (const std::string& name : kAllDatasets) {
    Result<Dataset> ds = GenerateByName(name, options.seed, scale);
    ds.status().CheckOK();
    const DatasetStats stats = ComputeStats(ds.value());
    table.AddRow({stats.name, std::to_string(stats.num_users),
                  std::to_string(stats.num_items),
                  std::to_string(stats.num_interactions),
                  FormatDouble(stats.avg_interactions_per_user, 0),
                  FormatDouble(100.0 * stats.sparsity, 2) + "%",
                  FormatDouble(stats.gini_popularity, 3),
                  FormatDouble(100.0 * stats.top10_percent_share, 1) + "%"});
  }
  EmitTable(table, options);
  std::puts("(paper: 943/1682/100000/106/93.70%, 6040/3706/1000209/166/95.53%,"
            " 3753/5134/114713/31/99.40%)");
}

/// Fig. 3: the side effects of FedRecAttack, as training-loss and HR@10
/// series per epoch under rho in {none, 3%, 5%, 10%} on all three datasets.
/// Expected shape: the curves practically coincide (the attack is stealthy;
/// HR@10 degradation < 2.5%). The first column is the baseline of the final
/// HR@10 deltas printed under the table.
void RunFig3(const FlagParser& flags, const BenchOptions& options,
             ThreadPool* pool) {
  const std::vector<double> rhos =
      flags.GetDoubleList("rho", {0.0, 0.03, 0.05, 0.10});
  const auto cadence = static_cast<std::size_t>(flags.GetInt("eval-every", 5));

  TextTable table("Fig. 3 series (training loss | HR@10 per epoch)");
  std::vector<std::string> header{"Dataset", "Epoch"};
  for (double rho : rhos) {
    const std::string tag = rho == 0.0 ? "None" : ColumnLabel(kRho, rho);
    header.push_back("loss " + tag);
    header.push_back("HR " + tag);
  }
  table.SetHeader(header);

  std::vector<std::string> summaries;
  for (const std::string& dataset : kAllDatasets) {
    if (!summaries.empty()) table.AddSeparator();
    std::vector<ExperimentResult> runs;
    for (double rho : rhos) {
      ExperimentSpec spec;
      spec.dataset = dataset;
      spec.attack = rho == 0.0 ? "none" : "fedrecattack";
      spec.rho = rho;
      spec.eval_every = cadence;
      ApplyScale(options, spec);
      runs.push_back(RunExperiment(spec, pool));
    }
    const std::vector<EpochRecord>& first = runs[0].history;
    for (std::size_t e = 0; e < first.size(); ++e) {
      if (!first[e].has_metrics && e + 1 != first.size()) continue;
      std::vector<std::string> row{dataset, std::to_string(e + 1)};
      for (const ExperimentResult& run : runs) {
        const EpochRecord& record = run.history[e];
        row.push_back(Fmt4(record.train_loss));
        row.push_back(record.has_metrics ? Fmt4(record.metrics.hit_ratio)
                                         : "-");
      }
      table.AddRow(std::move(row));
    }

    std::string summary = dataset;
    summary += " final HR@10 deltas vs None:";
    for (std::size_t i = 1; i < runs.size(); ++i) {
      summary += ' ';
      summary += Fmt4(runs[i].final_metrics.hit_ratio -
                      runs[0].final_metrics.hit_ratio);
    }
    summaries.push_back(std::move(summary));
  }
  EmitTable(table, options);
  for (const std::string& summary : summaries) {
    std::puts(summary.c_str());
  }
  std::puts("(paper: all FedRecAttack HR@10 curves within ~2.5% of None)");
}

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  flags.Parse(argc, argv).CheckOK();
  const std::vector<TableSpec> tables = PaperTables();
  const std::string selected =
      flags.positional().size() == 1 ? flags.positional()[0] : "";
  const TableSpec* grid = nullptr;
  for (const TableSpec& table : tables) {
    if (selected == table.name) grid = &table;
  }

  if (grid != nullptr || selected == "table2" || selected == "fig3") {
    // Every flag must be one the table reads: a mistyped sweep flag would
    // otherwise reproduce the defaults without a word.
    std::vector<std::string> known = kBenchOptionFlags;
    if (selected == "fig3") {
      known.insert(known.end(), {"rho", "eval-every"});
    } else if (grid != nullptr) {
      if (grid->flag != nullptr) known.push_back(grid->flag);
      if (grid->screen_uploads) known.push_back("z");
    }
    const std::vector<std::string> unknown = flags.UnknownFlags(known);
    if (!unknown.empty()) {
      std::string reads;
      for (const std::string& name : known) {
        reads += " --";
        reads += name;
      }
      for (const std::string& name : unknown) {
        std::fprintf(stderr, "bench_paper %s: unknown flag --%s\n",
                     selected.c_str(), name.c_str());
      }
      std::fprintf(stderr, "%s reads:%s\n", selected.c_str(), reads.c_str());
      return 2;
    }
    const BenchOptions options = ParseBenchOptions(flags);
    const auto pool = MakePool(options);
    if (selected == "table2") {
      RunTable2(flags, options);
    } else if (selected == "fig3") {
      RunFig3(flags, options, pool.get());
    } else {
      RunGrid(*grid, flags, options, pool.get());
    }
    return 0;
  }

  std::string names = "table2";
  for (const TableSpec& table : tables) {
    names += ' ';
    names += table.name;
  }
  names += " fig3";
  std::fprintf(stderr,
               "usage: bench_paper <table> [--quick | --full | --scale=<f>] "
               "[flags]\ntables: %s\n",
               names.c_str());
  return 2;
}

}  // namespace
}  // namespace fedrec

int main(int argc, char** argv) {
  return fedrec::Main(argc, argv);
}
