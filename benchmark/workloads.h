#ifndef FEDREC_BENCHMARK_WORKLOADS_H_
#define FEDREC_BENCHMARK_WORKLOADS_H_

#include "layers.h"

/// \file
/// The benchmark's workloads. Each fills a RunReport: end-to-end metrics,
/// per-layer metrics, the quality digest and the failed checks. README.md in
/// this directory says why each workload exists.

namespace fedrec::benchmark {

/// paper_ml100k, robust_ml1m_s4 and faults_ml100k_s2; false for other names.
bool IsTrainingWorkload(const std::string& name);
RunReport RunTrainingWorkload(const RunOptions& options);

/// service_fanin.
RunReport RunServiceWorkload(const RunOptions& options);

}  // namespace fedrec::benchmark

#endif  // FEDREC_BENCHMARK_WORKLOADS_H_
