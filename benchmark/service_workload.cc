// service_fanin: FederationService over loopback TCP, shard fan-out through
// SocketShardTransport to two in-process ShardDaemon threads, driven by one
// closed-loop load-generator thread over four client connections.

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "fed/aggregator.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "shard/federation_service.h"
#include "shard/shard_daemon.h"
#include "shard/socket_transport.h"
#include "shard/wire.h"
#include "workloads.h"

namespace fedrec::benchmark {

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kUploadsPerConnection = 64;
constexpr std::size_t kRoundSize = kConnections * kUploadsPerConnection;
constexpr std::size_t kRowsPerUpload = 32;
constexpr std::size_t kDim = 32;
constexpr float kLearningRate = 0.01f;
constexpr std::size_t kWarmupRounds = 50;
/// Rounds measured per second of --seconds: about the round rate on a
/// 4-core Xeon. The window is a round count, not a time budget, so a faster
/// commit times the same rounds as its parent.
constexpr double kRoundsPerSecond = 200.0;
constexpr std::size_t kSmokeMeasuredRounds = 50;
/// Sum order follows TCP arrival order, so the served model matches the
/// in-process replay only up to float reassociation.
constexpr double kReplayTolerance = 1e-4;
/// Load generator, service loop and the two daemons.
constexpr std::size_t kThreads = 2 + kShards;

struct LoadConnection {
  int fd = -1;
  FrameReader reader;
  SendQueue out;
  bool out_armed = false;
  std::vector<std::string> uploads;  ///< pre-encoded FRWU payloads
  std::uint64_t round = 0;           ///< round in flight on this connection
  std::size_t acks = 0;              ///< acks of `round` received so far
};

/// Load-generator counters over one window of rounds.
struct LoadCounters {
  std::uint64_t flush_us = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t uploads_sent = 0;
  std::uint64_t acks = 0;
};

/// One complete set-up: data, daemons, service, connected clients. The
/// destructor stops and joins every thread it started.
class ServiceTopology {
 public:
  ServiceTopology(std::uint64_t seed, SetupTimes& times);
  ~ServiceTopology();
  ServiceTopology(const ServiceTopology&) = delete;
  ServiceTopology& operator=(const ServiceTopology&) = delete;

  /// Drives rounds closed-loop: each connection sends its next round only
  /// after all of its acks for the current one arrived. Returns after the
  /// round in which `stop()` first held has been acked everywhere. Records
  /// each round's first-send and last-ack times.
  void DriveRounds(const std::function<bool()>& stop, LoadCounters& counters,
                   RunReport& report);

  /// Stops the service and the daemons and joins their threads.
  void Stop();

  std::uint64_t rounds_started() const { return round_start_us_.size(); }
  const std::vector<std::uint64_t>& round_start_us() const {
    return round_start_us_;
  }
  const std::vector<std::uint64_t>& round_end_us() const {
    return round_end_us_;
  }
  const FederationService& service() const { return *service_; }
  const TimedTransport& transport() const { return *transport_; }
  const MfModel& model() const { return model_; }
  const Matrix& initial_items() const { return initial_items_; }
  const std::vector<ClientUpdate>& updates() const { return updates_; }

 private:
  void SendRound(LoadConnection& conn, std::uint64_t round,
                 LoadCounters& counters);
  void Flush(LoadConnection& conn, LoadCounters& counters);

  MfModel model_;
  Matrix initial_items_;
  std::vector<ClientUpdate> updates_;  ///< connection-major upload order
  std::vector<std::unique_ptr<ShardDaemon>> daemons_;
  std::unique_ptr<SocketShardTransport> socket_;
  std::unique_ptr<TimedTransport> transport_;
  std::unique_ptr<FederationService> service_;
  std::vector<LoadConnection> conns_;
  std::vector<std::size_t> conn_of_fd_;
  EpollLoop loop_;
  std::vector<std::uint64_t> round_start_us_;
  std::vector<std::uint64_t> round_end_us_;
  std::vector<std::size_t> conns_done_;  ///< per round
  // Declared last: they run against the members above.
  std::vector<std::thread> daemon_threads_;
  std::thread service_thread_;
};

ServiceTopology::ServiceTopology(std::uint64_t seed, SetupTimes& times) {
  std::uint64_t step_us = MonotonicMicros();
  Result<Dataset> dataset = GenerateByName("ml-1m", seed, 1.0);
  dataset.status().CheckOK();
  const Dataset& data = dataset.value();
  times.generate_s.push_back(SecondsSince(step_us));

  // Each upload carries the first kRowsPerUpload items of a seeded user's
  // history, so rows follow the catalogue's popularity skew.
  step_us = MonotonicMicros();
  std::vector<std::uint32_t> users(data.num_users());
  std::iota(users.begin(), users.end(), 0u);
  Rng rng(seed + 1);
  rng.Shuffle(users);
  BinaryWriter writer;
  conns_.resize(kConnections);
  updates_.reserve(kRoundSize);
  for (const std::uint32_t user : users) {
    if (updates_.size() == kRoundSize) break;
    const std::vector<std::uint32_t>& items = data.UserItems(user);
    if (items.size() < kRowsPerUpload) continue;
    ClientUpdate update;
    update.user = user;
    update.item_gradients.Reset(kDim);
    for (std::size_t r = 0; r < kRowsPerUpload; ++r) {
      for (float& value : update.item_gradients.RowMutable(items[r])) {
        value = 0.1f * (rng.NextFloat() - 0.5f);
      }
    }
    writer.Clear();
    EncodeUpload(update.item_gradients, user, writer);
    conns_[updates_.size() / kUploadsPerConnection].uploads.push_back(
        writer.buffer());
    updates_.push_back(std::move(update));
  }
  FEDREC_CHECK_EQ(updates_.size(), kRoundSize);
  times.split_s.push_back(SecondsSince(step_us));

  MfHyperParams params;
  params.dim = kDim;
  Rng model_rng(seed + 2);
  model_ = MfModel(data.num_items(), params, model_rng);
  initial_items_ = model_.item_factors();

  const ShardPlan plan(data.num_items(), kShards,
                       ShardPolicy::kContiguousRange);
  SocketShardTransport::Options transport_options;
  for (std::size_t s = 0; s < kShards; ++s) {
    ShardDaemon::Options options;
    options.shard_index = s;
    daemons_.push_back(std::make_unique<ShardDaemon>(options));
    daemons_.back()->Listen().CheckOK();
    ShardEndpoint endpoint;
    endpoint.port = daemons_.back()->port();
    transport_options.endpoints.push_back(endpoint);
  }
  for (auto& daemon : daemons_) {
    daemon_threads_.emplace_back([d = daemon.get()] { d->Run(); });
  }
  socket_ = std::make_unique<SocketShardTransport>(plan, kDim,
                                                   transport_options);
  transport_ = std::make_unique<TimedTransport>(socket_.get());
  FederationService::Options service_options;
  service_options.round_size = kRoundSize;
  service_options.learning_rate = kLearningRate;
  service_ = std::make_unique<FederationService>(&model_, transport_.get(),
                                                 service_options);
  service_->Listen().CheckOK();
  service_thread_ = std::thread([this] { service_->Run(); });

  for (LoadConnection& conn : conns_) {
    Result<int> fd = TcpConnect("127.0.0.1", service_->port());
    fd.status().CheckOK();
    conn.fd = fd.value();
    SetNonBlocking(conn.fd).CheckOK();
    const auto index = static_cast<std::size_t>(conn.fd);
    if (index >= conn_of_fd_.size()) conn_of_fd_.resize(index + 1, 0);
    conn_of_fd_[index] = static_cast<std::size_t>(&conn - conns_.data());
    loop_.Watch(conn.fd, EPOLLIN, static_cast<std::uint64_t>(conn.fd))
        .CheckOK();
  }
}

ServiceTopology::~ServiceTopology() {
  Stop();
  for (LoadConnection& conn : conns_) CloseSocket(conn.fd);
}

void ServiceTopology::Stop() {
  if (service_thread_.joinable()) {
    service_->RequestStop();
    service_thread_.join();
  }
  for (auto& daemon : daemons_) daemon->RequestStop();
  for (std::thread& thread : daemon_threads_) {
    if (thread.joinable()) thread.join();
  }
}

void ServiceTopology::Flush(LoadConnection& conn, LoadCounters& counters) {
  const std::uint64_t start_us = MonotonicMicros();
  bool blocked = false;
  conn.out.Flush(conn.fd, blocked).CheckOK();
  if (blocked != conn.out_armed) {
    const std::uint32_t events =
        blocked ? (EPOLLIN | EPOLLOUT) : static_cast<std::uint32_t>(EPOLLIN);
    loop_.Modify(conn.fd, events, static_cast<std::uint64_t>(conn.fd))
        .CheckOK();
    conn.out_armed = blocked;
  }
  counters.flush_us += MonotonicMicros() - start_us;
}

void ServiceTopology::SendRound(LoadConnection& conn, std::uint64_t round,
                                LoadCounters& counters) {
  if (round == round_start_us_.size()) {
    round_start_us_.push_back(MonotonicMicros());
    round_end_us_.push_back(0);
    conns_done_.push_back(0);
  }
  conn.round = round;
  conn.acks = 0;
  const std::uint64_t start_us = MonotonicMicros();
  for (const std::string& upload : conn.uploads) {
    const std::array<std::string_view, 1> pieces = {std::string_view(upload)};
    conn.out.AppendFrame(FrameType::kClientUpload, pieces);
    counters.bytes_up += kFrameHeaderBytes + upload.size();
  }
  counters.uploads_sent += conn.uploads.size();
  counters.flush_us += MonotonicMicros() - start_us;
  Flush(conn, counters);
}

void ServiceTopology::DriveRounds(const std::function<bool()>& stop,
                                  LoadCounters& counters, RunReport& report) {
  const std::uint64_t first = round_start_us_.size();
  std::uint64_t last = UINT64_MAX;  // the final round, once decided
  for (LoadConnection& conn : conns_) SendRound(conn, first, counters);
  std::size_t active = conns_.size();
  while (active > 0) {
    const std::span<const epoll_event> events = loop_.Wait(10000);
    FEDREC_CHECK(!events.empty()) << "load generator stalled waiting for acks";
    for (const epoll_event& event : events) {
      const auto fd = static_cast<std::size_t>(event.data.u64);
      LoadConnection& conn = conns_[conn_of_fd_[fd]];
      if ((event.events & EPOLLOUT) != 0) Flush(conn, counters);
      if ((event.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      for (;;) {
        char* tail = conn.reader.PrepareWrite(4096);
        ReadOutcome outcome;
        ReadSome(conn.fd, tail, conn.reader.writable(), outcome).CheckOK();
        FEDREC_CHECK(!outcome.eof) << "service closed a client connection";
        conn.reader.CommitWrite(outcome.bytes);
        if (outcome.would_block) break;
      }
      for (;;) {
        FrameView frame;
        bool has_frame = false;
        conn.reader.Next(frame, has_frame).CheckOK();
        if (!has_frame) break;
        counters.bytes_down += kFrameHeaderBytes + frame.payload.size();
        if (frame.type != FrameType::kRoundAck) {
          report.Fail("service: reply of frame type " +
                      std::to_string(static_cast<int>(frame.type)) +
                      " instead of an ack");
          continue;
        }
        BinaryReader reader = BinaryReader::View(frame.payload);
        Result<std::uint64_t> acked = reader.ReadU64();
        if (!acked.ok() || acked.value() != conn.round ||
            conn.acks == conn.uploads.size()) {
          report.Fail("service: ack for round " +
                      (acked.ok() ? std::to_string(acked.value()) : "?") +
                      " while round " + std::to_string(conn.round) +
                      " had " + std::to_string(conn.acks) + " acks");
          continue;
        }
        ++counters.acks;
        if (++conn.acks < conn.uploads.size()) continue;
        const std::uint64_t round = conn.round;
        const std::size_t done = ++conns_done_[round];
        if (done == conns_.size()) round_end_us_[round] = MonotonicMicros();
        // Decided once per round, by its first finisher, so every
        // connection agrees on whether the next round happens.
        if (done == 1 && last == UINT64_MAX && stop()) last = round;
        if (round < last) {
          SendRound(conn, round + 1, counters);
        } else {
          --active;
        }
      }
    }
  }
}

}  // namespace

RunReport RunServiceWorkload(const RunOptions& options) {
  SetupTimes setup;
  RunReport report;
  report.threads = kThreads;
  auto set_up = [&](LoadCounters& warmup) {
    const std::uint64_t start_us = MonotonicMicros();
    auto topology = std::make_unique<ServiceTopology>(options.seed, setup);
    topology->DriveRounds(
        [&] { return topology->rounds_started() >= kWarmupRounds; }, warmup,
        report);
    setup.total_s.push_back(SecondsSince(start_us));
    return topology;
  };
  LoadCounters warmup;
  std::unique_ptr<ServiceTopology> topology = set_up(warmup);

  std::vector<StageSeries> stages;
  for (const char* stage : {"route", "shard_aggregate", "merge", "apply"}) {
    stages.emplace_back(stage);
    stages.back().Start();
  }
  obs::Histogram* roundtrip =
      obs::Registry::Global().GetHistogram("fedrec_socket_roundtrip_us");
  const std::uint64_t roundtrip_sum0 = roundtrip->Sum();
  const std::uint64_t roundtrip_count0 = roundtrip->Count();
  const std::uint64_t allocs0 = SparseAllocationCount();
  const Status rss_reset = ResetPeakRss();
  if (!rss_reset.ok()) report.Fail("peak RSS: " + rss_reset.ToString());
  obs::TraceRing::Global().Clear();

  const std::uint64_t first = topology->rounds_started();
  const std::uint64_t window =
      options.smoke ? kSmokeMeasuredRounds
                    : std::max<std::uint64_t>(
                          1, static_cast<std::uint64_t>(
                                 options.seconds * kRoundsPerSecond + 0.5));
  LoadCounters measured;
  topology->DriveRounds(
      [&] { return topology->rounds_started() - first >= window; }, measured,
      report);

  const std::uint64_t allocs = SparseAllocationCount() - allocs0;
  const double peak_rss_mb = PeakRssMiB();
  const std::uint64_t total_rounds = topology->rounds_started();
  const std::uint64_t rounds = total_rounds - first;
  std::vector<double> round_ms;
  for (std::uint64_t r = first; r < total_rounds; ++r) {
    round_ms.push_back(static_cast<double>(topology->round_end_us()[r] -
                                           topology->round_start_us()[r]) *
                       1e-3);
  }
  topology->Stop();

  // Correctness: every upload acked once with its round id (checked while
  // driving), nothing rejected, and a served model that matches an
  // in-process single-server replay of the same rounds.
  const FederationService::Stats& stats = topology->service().stats();
  if (stats.rejected_uploads != 0) {
    report.Fail("service: " + std::to_string(stats.rejected_uploads) +
                " rejected uploads");
  }
  if (stats.rounds_completed != total_rounds) {
    report.Fail("service: " + std::to_string(stats.rounds_completed) +
                " rounds completed, " + std::to_string(total_rounds) +
                " driven");
  }
  const std::uint64_t sent = warmup.uploads_sent + measured.uploads_sent;
  const std::uint64_t acked = warmup.acks + measured.acks;
  if (acked != sent) {
    report.Fail("service: " + std::to_string(sent - acked) +
                " uploads never acked");
  }
  report.attempted = sent;
  report.failed = stats.rejected_uploads + (sent - acked);
  {
    AggregationWorkspace workspace;
    SparseRoundDelta delta;
    AggregatorOptions sum;
    AggregateUpdates(topology->updates(), kDim, sum, workspace, delta);
    MfModel replay = topology->model();
    replay.item_factors() = topology->initial_items();
    for (std::uint64_t r = 0; r < total_rounds; ++r) {
      replay.ApplySparseGradient(delta, kLearningRate);
    }
    const Matrix& served = topology->model().item_factors();
    const Matrix& expected = replay.item_factors();
    double diff = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < expected.rows(); ++i) {
      const auto a = served.Row(i);
      const auto b = expected.Row(i);
      for (std::size_t j = 0; j < b.size(); ++j) {
        const double d = static_cast<double>(a[j]) - b[j];
        diff += d * d;
        norm += static_cast<double>(b[j]) * b[j];
      }
    }
    const double relative = std::sqrt(diff / std::max(norm, 1e-30));
    if (!(relative <= kReplayTolerance)) {
      report.Fail("service: served model is " + std::to_string(relative) +
                  " relative L2 from the in-process replay");
    }
  }

  const auto n = static_cast<double>(rounds);
  auto per_round_ms = [&](std::uint64_t us) {
    return static_cast<double>(us) * 1e-3 / n;
  };
  std::uint64_t close_us = 0;
  for (const StageSeries& stage : stages) close_us += stage.TotalUs();
  const double mean_round_ms =
      std::accumulate(round_ms.begin(), round_ms.end(), 0.0) / n;
  const TimedTransport& transport = topology->transport();
  report.AddLayer("attack.produce_ms", 0.0, "ms");
  report.AddLayer("attack.calls", 0.0, "count");
  report.AddLayer("attack.share_pct", 0.0, "%");
  report.AddLayer("fed.local_train_ms", 0.0, "ms");
  report.AddLayer("fed.begin_epoch_ms", 0.0, "ms");
  report.AddLayer("fed.aggregate_ms", 0.0, "ms");
  report.AddLayer("model.apply_ms", per_round_ms(stages[3].TotalUs()), "ms");
  report.AddLayer("shard.route_ms", per_round_ms(stages[0].TotalUs()), "ms");
  report.AddLayer("shard.aggregate_ms", per_round_ms(stages[1].TotalUs()),
                  "ms");
  report.AddLayer("shard.merge_ms", per_round_ms(stages[2].TotalUs()), "ms");
  // Counted over the whole kept set-up (warmup included): the service thread
  // owns these counters until it is joined.
  report.AddLayer("shard.slowest_shard_ms",
                  static_cast<double>(transport.BusiestShardUs()) * 1e-3 /
                      static_cast<double>(total_rounds),
                  "ms");
  report.AddLayer("shard.retries", static_cast<double>(stats.shard_retries),
                  "count");
  report.AddLayer("shard.outages", static_cast<double>(stats.shard_outages),
                  "count");
  report.AddLayer("shard.fallbacks", static_cast<double>(stats.fallback_shards),
                  "count");
  report.AddLayer("shard.first_try_ok_ratio",
                  static_cast<double>(transport.first_try_ok()) /
                      static_cast<double>(
                          std::max<std::uint64_t>(transport.deliveries(), 1)),
                  "ratio");
  report.AddLayer(
      "shard.wire_kb_per_round",
      static_cast<double>(transport.server().stats().upload_bytes) / 1024.0 /
          static_cast<double>(total_rounds),
      "KiB");
  report.AddLayer("shard.allocs_per_round", static_cast<double>(allocs) / n,
                  "count");
  report.AddLayer("service.close_ms", per_round_ms(close_us), "ms");
  report.AddLayer("service.fanin_ms", mean_round_ms - per_round_ms(close_us),
                  "ms");
  report.AddLayer("net.client_flush_ms", per_round_ms(measured.flush_us),
                  "ms");
  report.AddLayer("net.bytes_up_per_round",
                  static_cast<double>(measured.bytes_up) / n, "B");
  report.AddLayer("net.bytes_down_per_round",
                  static_cast<double>(measured.bytes_down) / n, "B");
  const std::uint64_t trips = roundtrip->Count() - roundtrip_count0;
  report.AddLayer(
      "net.shard_roundtrip_ms",
      trips > 0 ? static_cast<double>(roundtrip->Sum() - roundtrip_sum0) *
                      1e-3 / static_cast<double>(trips)
                : 0.0,
      "ms");
  report.AddLayer("attributed_pct",
                  100.0 * per_round_ms(close_us) / mean_round_ms, "%");

  // The other set-ups only time set-up. They run after the measured phase,
  // so what they leave in the heap stays out of its peak RSS, and their
  // spans stay out of its trace.
  obs::TraceRing::Global().Disable();
  topology.reset();
  for (std::size_t rep = 1; rep < options.setup_reps; ++rep) {
    LoadCounters unused;
    set_up(unused);
  }
  setup.attack_init_s.push_back(0.0);
  setup.evaluator_init_s.push_back(0.0);
  AddEndToEndMetrics(report, round_ms, Median(setup.total_s), peak_rss_mb);
  setup.AddMetrics(report);
  return report;
}

}  // namespace fedrec::benchmark
