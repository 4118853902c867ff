/// fedrec_benchmark: runs one workload of the repo benchmark in this process
/// and prints its report as one JSON line. benchmark/run.py builds this
/// binary, runs each workload in its own process, checks the report against
/// the goldens and prints the metrics.
///
///   fedrec_benchmark --workload=paper_ml100k [--seed=42] [--seconds=15]
///       [--traced] [--trace-out=path] [--smoke] [--setup-reps=3]

#include <cstdio>

#include "common/flags.h"
#include "common/logging.h"
#include "workloads.h"

using namespace fedrec;
using namespace fedrec::benchmark;

int main(int argc, char** argv) {
  FlagParser flags;
  const Status parsed = flags.Parse(argc, argv);
  RunOptions options;
  options.workload = flags.GetString("workload", "");
  const bool training = IsTrainingWorkload(options.workload);
  if (!parsed.ok() || (!training && options.workload != "service_fanin")) {
    std::fprintf(stderr,
                 "usage: fedrec_benchmark --workload=paper_ml100k|"
                 "robust_ml1m_s4|service_fanin|faults_ml100k_s2 ...\n");
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  options.seconds = flags.GetDouble("seconds", 15.0);
  options.traced = flags.GetBool("traced", false);
  options.trace_out = flags.GetString("trace-out", "");
  options.smoke = flags.GetBool("smoke", false);
  options.setup_reps =
      static_cast<std::size_t>(flags.GetInt("setup-reps", 3));
  if (options.setup_reps == 0) options.setup_reps = 1;
  SetLogLevel(LogLevel::kWarning);

  // The ring is sized before any thread records into it; the workload
  // clears it when the measured phase starts and stops it when the phase
  // ends. A long run keeps its most recent spans.
  if (options.traced) obs::TraceRing::Global().Enable(1u << 16);
  RunReport report = training ? RunTrainingWorkload(options)
                              : RunServiceWorkload(options);
  if (options.traced) WriteTrace(options.trace_out, report);
  std::printf("%s\n", ReportJson(options, report).c_str());
  return 0;
}
