#include "layers.h"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "data/serialize.h"

namespace fedrec::benchmark {

namespace {

void AppendNumber(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out.append(buffer);
}

void AppendString(std::string& out, const std::string& text) {
  out.push_back('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void AppendMetrics(std::string& out, const std::vector<Metric>& metrics) {
  out.push_back('{');
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendString(out, metrics[i].name);
    out.append(":{\"value\":");
    AppendNumber(out, metrics[i].value);
    out.append(",\"unit\":");
    AppendString(out, metrics[i].unit);
    out.push_back('}');
  }
  out.push_back('}');
}

}  // namespace

std::string ReportJson(const RunOptions& options, const RunReport& report) {
  std::string out = "{\"workload\":";
  AppendString(out, options.workload);
  out.append(",\"seed\":" + std::to_string(options.seed));
  out.append(",\"traced\":");
  out.append(options.traced ? "true" : "false");
  out.append(",\"smoke\":");
  out.append(options.smoke ? "true" : "false");
  out.append(",\"build_type\":");
  AppendString(out, FEDREC_BENCHMARK_BUILD_TYPE);
  out.append(",\"threads\":" + std::to_string(report.threads));
  out.append(",\"attempted\":" + std::to_string(report.attempted));
  out.append(",\"failed\":" + std::to_string(report.failed));
  out.append(",\"measured_rounds\":" + std::to_string(report.measured_rounds));
  out.append(",\"end_to_end\":");
  AppendMetrics(out, report.end_to_end);
  out.append(",\"per_layer\":");
  AppendMetrics(out, report.per_layer);
  out.append(",\"quality\":");
  if (report.has_quality) {
    out.append("{\"checkpoint_round\":" +
               std::to_string(report.checkpoint_round));
    out.append(",\"er5\":");
    AppendNumber(out, report.er5);
    out.append(",\"er10\":");
    AppendNumber(out, report.er10);
    out.append(",\"ndcg10\":");
    AppendNumber(out, report.ndcg10);
    out.append(",\"hr10\":");
    AppendNumber(out, report.hr10);
    out.append(",\"model_digest\":");
    AppendString(out, report.model_digest);
    out.push_back('}');
  } else {
    out.append("null");
  }
  out.append(",\"ledger\":");
  if (report.has_ledger) {
    out.append("{\"outages\":" + std::to_string(report.outages) +
               ",\"retries\":" + std::to_string(report.retries) +
               ",\"fallbacks\":" + std::to_string(report.fallbacks) + "}");
  } else {
    out.append("null");
  }
  out.append(",\"failures\":[");
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendString(out, report.failures[i]);
  }
  out.append("]}");
  return out;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(q / 100.0 * n + 0.9999999);
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

Status ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the resident high-water mark (Linux 4.0 and later).
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return Status::IOError("cannot open clear_refs");
  const bool written = std::fputs("5", file) >= 0;
  if (std::fclose(file) != 0 || !written) {
    return Status::IOError("cannot reset VmHWM through clear_refs");
  }
  return Status::OK();
}

double PeakRssMiB() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(file);
  return static_cast<double>(kib) / 1024.0;
}

void AddEndToEndMetrics(RunReport& report, const std::vector<double>& round_ms,
                        double setup_s, double peak_rss_mb) {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p90;
  const std::size_t n = round_ms.size();
  for (std::size_t b = 0; b < kRoundBlocks; ++b) {
    const auto first = static_cast<std::ptrdiff_t>(n * b / kRoundBlocks);
    const auto last = static_cast<std::ptrdiff_t>(n * (b + 1) / kRoundBlocks);
    if (first == last) continue;  // fewer rounds than blocks
    const std::vector<double> block(round_ms.begin() + first,
                                    round_ms.begin() + last);
    const double block_ms = std::accumulate(block.begin(), block.end(), 0.0);
    rate.push_back(1e3 * static_cast<double>(block.size()) / block_ms);
    p50.push_back(Percentile(block, 50.0));
    p90.push_back(Percentile(block, 90.0));
  }
  report.measured_rounds = n;
  report.AddEndToEnd("rounds_per_s", Median(rate), "rounds/s");
  report.AddEndToEnd("round_ms_p50", Median(p50), "ms");
  report.AddEndToEnd("round_ms_p90", Median(p90), "ms");
  report.AddEndToEnd("setup_s", setup_s, "s");
  report.AddEndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
}

std::string MatrixDigest(const Matrix& matrix) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (const float value : matrix.Row(r)) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

StageSeries::StageSeries(const std::string& stage)
    : hist_(obs::Registry::Global().GetHistogram(
          "fedrec_stage_us", "stage=\"" + stage + "\"")) {}

void StageSeries::Start() { sum0_ = hist_->Sum(); }

std::vector<ClientUpdate> TimedAttack::ProduceUpdates(
    const RoundContext& context,
    std::span<const std::uint32_t> selected_malicious) {
  BenchSpan span("attack.produce", &busy_us_);
  ++calls_;
  return inner_->ProduceUpdates(context, selected_malicious);
}

TimedTransport::TimedTransport(ShardTransport* inner)
    : inner_(inner), slots_(inner->server().plan().num_shards()) {}

Status TimedTransport::ExecuteShardRound(std::size_t s,
                                         const AggregatorOptions& options,
                                         std::size_t round_size,
                                         std::uint64_t krum_source,
                                         std::uint64_t round,
                                         std::uint64_t attempt) {
  ShardSlot& slot = slots_[s];
  Status status;
  {
    BenchSpan span("shard.deliver", &slot.busy_us);
    status = inner_->ExecuteShardRound(s, options, round_size, krum_source,
                                       round, attempt);
  }
  if (attempt == 0) {
    ++slot.deliveries;
    if (status.ok()) ++slot.first_try_ok;
  }
  return status;
}

void TimedTransport::ResetCounters() {
  for (ShardSlot& slot : slots_) slot = ShardSlot{};
}

std::uint64_t TimedTransport::BusiestShardUs() const {
  std::uint64_t busiest = 0;
  for (const ShardSlot& slot : slots_) {
    busiest = std::max(busiest, slot.busy_us);
  }
  return busiest;
}

std::uint64_t TimedTransport::deliveries() const {
  std::uint64_t total = 0;
  for (const ShardSlot& slot : slots_) total += slot.deliveries;
  return total;
}

std::uint64_t TimedTransport::first_try_ok() const {
  std::uint64_t total = 0;
  for (const ShardSlot& slot : slots_) total += slot.first_try_ok;
  return total;
}

void SetupTimes::AddMetrics(RunReport& report) const {
  report.AddLayer("data.generate_s", Median(generate_s), "s");
  report.AddLayer("data.split_s", Median(split_s), "s");
  report.AddLayer("attack.init_s", Median(attack_init_s), "s");
  report.AddLayer("model.evaluator_init_s", Median(evaluator_init_s), "s");
}

void WriteTrace(const std::string& path, RunReport& report) {
  if (path.empty()) return;
  std::string json;
  obs::TraceRing::Global().RenderJson(json);
  BinaryWriter writer;
  writer.WriteBytes(json.data(), json.size());
  const Status status = writer.Flush(path);
  if (!status.ok()) report.Fail("trace export: " + status.ToString());
}

}  // namespace fedrec::benchmark
