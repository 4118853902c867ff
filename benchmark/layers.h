#ifndef FEDREC_BENCHMARK_LAYERS_H_
#define FEDREC_BENCHMARK_LAYERS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/stopwatch.h"
#include "fed/round_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/transport.h"

/// \file
/// Shared plumbing of the fedrec_benchmark binary: the run options and the
/// report every workload fills, and the benchmark-side timers that attribute
/// round time to layers. Every timer here wraps a public call of the library
/// (a decorator or a stage call) or reads a delta of a series the library
/// already records; the benchmark adds no spans inside the program.

namespace fedrec::benchmark {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  /// Sets the length of the measured phase as a round count: the seconds it
  /// takes at the workload's nominal round rate. The count, not the clock,
  /// ends the phase, so every host and commit measures the same rounds.
  double seconds = 15.0;
  bool traced = false;
  /// Short run (few epochs / rounds) that exercises every path and check.
  bool smoke = false;
  /// Complete set-ups timed per run; setup_s is their median.
  std::size_t setup_reps = 3;
  std::string trace_out;  ///< Chrome trace path (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to benchmark/run.py, which keeps the
/// end-to-end metrics of untraced runs and the per-layer ones of traced runs.
struct RunReport {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;  ///< rounds (training) or uploads (service)
  std::uint64_t failed = 0;     ///< skipped rounds / rejected or lost uploads
  std::uint64_t measured_rounds = 0;
  std::size_t threads = 0;

  // Training workloads: the quality digest at the checkpoint round.
  bool has_quality = false;
  std::uint64_t checkpoint_round = 0;
  double er5 = 0.0;
  double er10 = 0.0;
  double ndcg10 = 0.0;
  double hr10 = 0.0;
  std::string model_digest;  ///< FNV-1a of the item matrix, hex

  // Sharded workloads with faults: the ledger at the checkpoint round.
  bool has_ledger = false;
  std::uint64_t outages = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;

  /// Failed correctness checks ("name: detail"); empty = all passed.
  std::vector<std::string> failures;

  void AddEndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void AddLayer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string what) { failures.push_back(std::move(what)); }
};

/// Renders the report as one JSON line.
std::string ReportJson(const RunOptions& options, const RunReport& report);

// -- Statistics --------------------------------------------------------------

/// Nearest-rank percentile (`q` in [0, 100]) of a copy of `samples`.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Starts the measured phase's peak-memory window: hands freed heap back to
/// the kernel, so the window starts from live memory, and resets the
/// kernel's resident high-water mark (VmHWM).
Status ResetPeakRss();

/// Peak resident set of this process since ResetPeakRss(), in MiB.
double PeakRssMiB();

/// Blocks the measured rounds are cut into for the end-to-end time metrics.
/// Every workload measures at least 900 rounds at --seconds 15, so each
/// block holds at least 180 and its p90 has at least 18 rounds beyond it.
inline constexpr std::size_t kRoundBlocks = 5;

/// The end-to-end metrics every workload reports, from its per-round
/// latencies (ms) in the order the rounds ran and the peak RSS of the
/// measured phase. The rounds are cut into kRoundBlocks consecutive blocks
/// of equal count; each time metric is the median over the blocks of that
/// block's value, so a burst of host noise moves one block, not the run.
void AddEndToEndMetrics(RunReport& report, const std::vector<double>& round_ms,
                        double setup_s, double peak_rss_mb);

/// 64-bit FNV-1a over the matrix's float bits, as 16 hex digits.
std::string MatrixDigest(const Matrix& matrix);

// -- Timing ------------------------------------------------------------------

/// Seconds elapsed since `start_us` on the obs clock.
inline double SecondsSince(std::uint64_t start_us) {
  return static_cast<double>(MonotonicMicros() - start_us) * 1e-6;
}

/// Times a scope and records it as a "bench" span in the global trace ring
/// (a no-op while the ring is disabled). The name must be a literal.
class BenchSpan {
 public:
  BenchSpan(const char* name, std::uint64_t* total_us)
      : name_(name), total_us_(total_us), start_us_(MonotonicMicros()) {}
  ~BenchSpan() {
    const std::uint64_t dur = MonotonicMicros() - start_us_;
    *total_us_ += dur;
    obs::TraceRing::Global().Record(name_, "bench", start_us_, dur);
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t* total_us_;
  std::uint64_t start_us_;
};

/// Delta of one `fedrec_stage_us{stage="..."}` histogram over a window: the
/// library's own per-stage spans, read without touching the program.
class StageSeries {
 public:
  explicit StageSeries(const std::string& stage);
  void Start();
  /// Microseconds recorded since Start().
  std::uint64_t TotalUs() const { return hist_->Sum() - sum0_; }

 private:
  obs::Histogram* hist_;
  std::uint64_t sum0_ = 0;
};

/// Times every ProduceUpdates call of the wrapped attack.
class TimedAttack final : public MaliciousCoordinator {
 public:
  explicit TimedAttack(std::unique_ptr<MaliciousCoordinator> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<ClientUpdate> ProduceUpdates(
      const RoundContext& context,
      std::span<const std::uint32_t> selected_malicious) override;

  std::uint64_t busy_us() const { return busy_us_; }
  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<MaliciousCoordinator> inner_;
  std::uint64_t busy_us_ = 0;
  std::uint64_t calls_ = 0;
};

/// Forwards every shard delivery to `inner` and times it per shard; the
/// busiest shard's time is what a round waits for when shards are uneven.
/// ExecuteShardRound may run concurrently for distinct shards, and each
/// shard writes only its own slot; read the counters when no delivery runs.
class TimedTransport final : public ShardTransport {
 public:
  explicit TimedTransport(ShardTransport* inner);

  using ShardTransport::server;
  ShardServer& server() override { return inner_->server(); }
  bool fallible() const override { return inner_->fallible(); }
  const char* name() const override { return inner_->name(); }
  [[nodiscard]] Status ExecuteShardRound(std::size_t s,
                                         const AggregatorOptions& options,
                                         std::size_t round_size,
                                         std::uint64_t krum_source,
                                         std::uint64_t round,
                                         std::uint64_t attempt) override;

  void ResetCounters();
  /// Largest per-shard delivery time summed since ResetCounters().
  std::uint64_t BusiestShardUs() const;
  std::uint64_t deliveries() const;  ///< first attempts
  std::uint64_t first_try_ok() const;

 private:
  struct ShardSlot {
    std::uint64_t busy_us = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t first_try_ok = 0;
  };
  ShardTransport* inner_;
  std::vector<ShardSlot> slots_;
};

/// Each set-up step's time, one entry per repetition within a run.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> generate_s;
  std::vector<double> split_s;
  std::vector<double> attack_init_s;
  std::vector<double> evaluator_init_s;

  /// Adds the per-layer set-up metrics (medians over the repetitions).
  void AddMetrics(RunReport& report) const;
};

/// Writes the global trace ring as a Chrome trace JSON file.
void WriteTrace(const std::string& path, RunReport& report);

}  // namespace fedrec::benchmark

#endif  // FEDREC_BENCHMARK_LAYERS_H_
