#include "shard/federation_service.h"

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "fed/aggregator.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "shard/shard_daemon.h"
#include "shard/shard_plan.h"
#include "shard/shard_protocol.h"
#include "shard/shard_server.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace fedrec {
namespace {

constexpr std::size_t kNumItems = 30;
constexpr std::size_t kDim = 6;
constexpr float kLearningRate = 0.05f;

MfHyperParams ModelParams() {
  MfHyperParams params;
  params.dim = kDim;
  params.learning_rate = kLearningRate;
  return params;
}

/// A deterministic upload: `rows` gradient rows seeded off (user, round).
SparseRowMatrix MakeGradients(std::uint32_t user, std::uint64_t round,
                              std::span<const std::size_t> rows) {
  SparseRowMatrix gradients(kDim);
  Rng rng(1000 + round * 100 + user);
  for (const std::size_t row : rows) {
    auto values = gradients.RowMutable(row);
    for (float& v : values) {
      v = static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
  }
  return gradients;
}

std::string EncodeClientUpload(const SparseRowMatrix& gradients,
                               std::uint32_t user) {
  BinaryWriter writer;
  EncodeUpload(gradients, user, writer);
  return writer.buffer();
}

/// Blocking test client: one TCP connection to the service.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    Result<int> fd = TcpConnect("127.0.0.1", port);
    fd.status().CheckOK();
    fd_ = fd.value();
    SetIoTimeout(fd_, 5000).CheckOK();
  }

  /// Connects with the kernel receive buffer fixed at ~`rcvbuf` bytes (the
  /// kernel doubles it) before the handshake, so the advertised window
  /// matches it. Setting it also locks it: a peer that never reads
  /// otherwise lets the kernel grow the buffer toward tcp_rmem's maximum as
  /// small segments pile up, so the replies it absorbs vary run to run.
  TestClient(std::uint16_t port, int rcvbuf) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    FEDREC_CHECK_GE(fd_, 0);
    FEDREC_CHECK_EQ(
        setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sockaddr generic{};
    static_assert(sizeof(generic) == sizeof(addr));
    std::memcpy(&generic, &addr, sizeof(addr));
    FEDREC_CHECK_EQ(::connect(fd_, &generic, sizeof(addr)), 0);
    SetIoTimeout(fd_, 5000).CheckOK();
  }
  ~TestClient() { CloseSocket(fd_); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  void SendFrame(FrameType type, std::string_view payload) {
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(type, payload.size(), header);
    const std::array<std::string_view, 2> pieces = {
        std::string_view(header, sizeof(header)), payload};
    WriteAllVec(fd_, pieces).CheckOK();
  }

  /// Blocks (bounded by the io timeout) for the next frame from the service.
  std::pair<FrameType, std::string> NextFrame() {
    for (;;) {
      FrameView view;
      bool has_frame = false;
      reader_.Next(view, has_frame).CheckOK();
      if (has_frame) return {view.type, std::string(view.payload)};
      char* tail = reader_.PrepareWrite(4096);
      ReadOutcome outcome;
      ReadSome(fd_, tail, reader_.writable(), outcome).CheckOK();
      FEDREC_CHECK(!outcome.eof) << "service closed the connection";
      FEDREC_CHECK(!outcome.would_block) << "service reply timed out";
      reader_.CommitWrite(outcome.bytes);
    }
  }

  std::uint64_t ExpectRoundAck() {
    const auto [type, payload] = NextFrame();
    EXPECT_EQ(type, FrameType::kRoundAck);
    BinaryReader reader = BinaryReader::View(payload);
    Result<std::uint64_t> round = reader.ReadU64();
    round.status().CheckOK();
    return round.value();
  }

  /// Raw bytes on the wire — corrupt frames, partial headers.
  void SendRaw(std::string_view bytes) {
    const std::array<std::string_view, 1> pieces = {bytes};
    WriteAllVec(fd_, pieces).CheckOK();
  }

  /// Discards inbound bytes until the service closes the connection (orderly
  /// or reset); false when the socket instead goes quiet for the io timeout.
  bool WaitForClose() {
    for (int i = 0; i < 1000; ++i) {
      char buf[1024];
      ReadOutcome outcome;
      if (!ReadSome(fd_, buf, sizeof(buf), outcome).ok()) return true;
      if (outcome.eof) return true;
      if (outcome.would_block) return false;
    }
    return false;
  }

  /// Reads frames until the service closes the connection; returns how many
  /// of them were of `type`.
  std::size_t CountFramesUntilClose(FrameType type) {
    std::size_t count = 0;
    for (;;) {
      FrameView view;
      bool has_frame = false;
      reader_.Next(view, has_frame).CheckOK();
      if (has_frame) {
        if (view.type == type) ++count;
        continue;
      }
      char* tail = reader_.PrepareWrite(4096);
      ReadOutcome outcome;
      if (!ReadSome(fd_, tail, reader_.writable(), outcome).ok() ||
          outcome.eof) {
        return count;
      }
      FEDREC_CHECK(!outcome.would_block) << "service kept the connection";
      reader_.CommitWrite(outcome.bytes);
    }
  }

  /// Half-closes the connection: the service reads EOF after the bytes
  /// already sent.
  void ShutdownWrite() { FEDREC_CHECK_EQ(::shutdown(fd_, SHUT_WR), 0); }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

/// Service + in-process shard fan-out on a background thread. The service
/// self-stops after `max_rounds`; Join() then reaps the thread.
class ServiceHarness {
 public:
  ServiceHarness(MfModel* model, std::size_t num_shards,
                 std::size_t round_size, std::size_t max_rounds)
      : ServiceHarness(model, num_shards,
                       MakeOptions(round_size, max_rounds)) {}

  /// Full-options variant for the liveness/backpressure suites; a non-null
  /// `shard_faults` arms the in-process transport's fault injection.
  ServiceHarness(MfModel* model, std::size_t num_shards,
                 FederationService::Options options,
                 const FaultPlan* shard_faults = nullptr)
      : transport_(ShardPlan(kNumItems, num_shards,
                             ShardPolicy::kContiguousRange),
                   kDim) {
    transport_.set_fault_plan(shard_faults);
    service_ =
        std::make_unique<FederationService>(model, &transport_, options);
    service_->Listen().CheckOK();
    thread_ = std::thread([this] { service_->Run(); });
  }

  static FederationService::Options MakeOptions(std::size_t round_size,
                                                std::size_t max_rounds) {
    FederationService::Options options;
    options.round_size = round_size;
    options.learning_rate = kLearningRate;
    options.max_rounds = max_rounds;
    return options;
  }

  void RequestStop() { service_->RequestStop(); }

  ~ServiceHarness() {
    if (thread_.joinable()) {
      service_->RequestStop();
      thread_.join();
    }
  }

  void Join() { thread_.join(); }
  std::uint16_t port() const { return service_->port(); }
  const FederationService::Stats& stats() const { return service_->stats(); }

 private:
  InProcessShardTransport transport_;
  std::unique_ptr<FederationService> service_;
  std::thread thread_;
};

/// Applies one round of `updates` to `model` the way the service does:
/// aggregate (kSum defaults) then one sparse SGD step.
void ApplyReferenceRound(MfModel& model,
                         std::span<const ClientUpdate> updates) {
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, kDim, AggregatorOptions{}, workspace, delta);
  model.ApplySparseGradient(delta, kLearningRate);
}

TEST(FederationServiceTest, SingleClientDrivesRoundsAndModelMatches) {
  Rng service_init(5);
  MfModel service_model(kNumItems, ModelParams(), service_init);
  Rng reference_init(5);
  MfModel reference_model(kNumItems, ModelParams(), reference_init);
  ASSERT_TRUE(service_model.item_factors() ==
              reference_model.item_factors());

  const std::size_t rounds = 3;
  ServiceHarness harness(&service_model, /*num_shards=*/2, /*round_size=*/1,
                         rounds);
  TestClient client(harness.port());
  const std::array<std::size_t, 3> rows = {2, 17, 29};
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const SparseRowMatrix gradients = MakeGradients(7, r, rows);
    client.SendFrame(FrameType::kClientUpload,
                     EncodeClientUpload(gradients, 7));
    EXPECT_EQ(client.ExpectRoundAck(), r);

    ClientUpdate update;
    update.user = 7;
    update.item_gradients = gradients;
    ApplyReferenceRound(reference_model, std::span(&update, 1));
  }
  harness.Join();  // self-stopped at max_rounds

  EXPECT_TRUE(service_model.item_factors() ==
              reference_model.item_factors());
  EXPECT_EQ(harness.stats().rounds_completed, rounds);
  EXPECT_EQ(harness.stats().uploads_received, rounds);
  EXPECT_EQ(harness.stats().rejected_uploads, 0u);
}

TEST(FederationServiceTest, ConcurrentClientsCompleteRounds) {
  Rng service_init(6);
  MfModel service_model(kNumItems, ModelParams(), service_init);
  Rng reference_init(6);
  MfModel reference_model(kNumItems, ModelParams(), reference_init);

  const std::size_t num_clients = 3;
  const std::size_t rounds = 2;
  ServiceHarness harness(&service_model, /*num_shards=*/2, num_clients,
                         rounds);

  // Disjoint row sets per client: per-row aggregation sees exactly one
  // contributor, so the reference is insensitive to arrival order.
  const std::array<std::array<std::size_t, 2>, 3> client_rows = {
      {{0, 11}, {5, 22}, {9, 28}}};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(harness.port());
      for (std::uint64_t r = 0; r < rounds; ++r) {
        const SparseRowMatrix gradients = MakeGradients(
            static_cast<std::uint32_t>(c), r, client_rows[c]);
        client.SendFrame(FrameType::kClientUpload,
                         EncodeClientUpload(gradients,
                                            static_cast<std::uint32_t>(c)));
        EXPECT_EQ(client.ExpectRoundAck(), r);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  harness.Join();

  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<ClientUpdate> updates(num_clients);
    for (std::size_t c = 0; c < num_clients; ++c) {
      updates[c].user = static_cast<std::uint32_t>(c);
      updates[c].item_gradients = MakeGradients(
          static_cast<std::uint32_t>(c), r, client_rows[c]);
    }
    ApplyReferenceRound(reference_model, updates);
  }
  EXPECT_TRUE(service_model.item_factors() ==
              reference_model.item_factors());
  EXPECT_EQ(harness.stats().rounds_completed, rounds);
  EXPECT_EQ(harness.stats().uploads_received, num_clients * rounds);
  EXPECT_EQ(harness.stats().connections_accepted, num_clients);
}

TEST(FederationServiceTest, SteadyStateRoundsAreAllocationFree) {
  // Fully instrumented: spans record into the global ring throughout. The
  // ring is enabled before the service and client threads exist.
  obs::TraceRing& ring = obs::TraceRing::Global();
  ring.Enable(1u << 12);

  Rng init(16);
  MfModel model(kNumItems, ModelParams(), init);
  const std::size_t num_clients = 4;
  const std::size_t warmup_rounds = 3;
  const std::size_t measured_rounds = 8;
  ServiceHarness harness(&model, /*num_shards=*/2, num_clients,
                         warmup_rounds + measured_rounds);

  // Same-shaped uploads, encoded once and resent every round, so the
  // measured rounds build no gradients of their own. Every client sends two
  // rows to shard 0 (items [0, 15)) and one to shard 1, overlapping across
  // clients: uploads land in the service's slots in arrival order, so a
  // client-dependent shape would let one slot's buffers grow whenever a
  // larger upload first reaches it.
  const std::array<std::array<std::size_t, 3>, num_clients> client_rows = {
      {{0, 11, 20}, {5, 11, 22}, {3, 9, 20}, {2, 14, 29}}};
  std::vector<std::unique_ptr<TestClient>> clients;
  std::vector<std::string> uploads;
  for (std::size_t c = 0; c < num_clients; ++c) {
    const auto user = static_cast<std::uint32_t>(c);
    clients.push_back(std::make_unique<TestClient>(harness.port()));
    uploads.push_back(
        EncodeClientUpload(MakeGradients(user, 0, client_rows[c]), user));
  }
  auto run_rounds = [&](std::uint64_t first, std::size_t count) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < num_clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::uint64_t r = first; r < first + count; ++r) {
          clients[c]->SendFrame(FrameType::kClientUpload, uploads[c]);
          EXPECT_EQ(clients[c]->ExpectRoundAck(), r);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  };

  // Warm-up grows every high-water buffer end to end. Acks go out after the
  // round's apply, so once all of them are in the service is idle.
  run_rounds(0, warmup_rounds);
  ResetSparseAllocationCount();
  run_rounds(warmup_rounds, measured_rounds);
  harness.Join();  // self-stopped at max_rounds

  EXPECT_EQ(SparseAllocationCount(), 0u);
  EXPECT_EQ(harness.stats().rounds_completed, warmup_rounds + measured_rounds);
  EXPECT_GT(ring.recorded(), 0u);
  ring.Disable();
}

TEST(FederationServiceTest, MalformedUploadIsRejectedAndConnectionSurvives) {
  Rng init(7);
  MfModel model(kNumItems, ModelParams(), init);
  ServiceHarness harness(&model, /*num_shards=*/1, /*round_size=*/1,
                         /*max_rounds=*/1);
  TestClient client(harness.port());

  // Garbage bytes: the FRWU decoder refuses them, the service replies with
  // kError, and the connection keeps serving.
  client.SendFrame(FrameType::kClientUpload, "definitely not FRWU bytes");
  const auto [error_type, error_payload] = client.NextFrame();
  EXPECT_EQ(error_type, FrameType::kError);

  const std::array<std::size_t, 1> rows = {3};
  client.SendFrame(
      FrameType::kClientUpload,
      EncodeClientUpload(MakeGradients(1, 0, rows), 1));
  EXPECT_EQ(client.ExpectRoundAck(), 0u);
  harness.Join();
  EXPECT_EQ(harness.stats().rejected_uploads, 1u);
  EXPECT_EQ(harness.stats().rounds_completed, 1u);
}

TEST(FederationServiceTest, WrongDimUploadIsRejected) {
  Rng init(8);
  MfModel model(kNumItems, ModelParams(), init);
  ServiceHarness harness(&model, /*num_shards=*/1, /*round_size=*/1,
                         /*max_rounds=*/1);
  TestClient client(harness.port());

  // Well-formed FRWU, wrong geometry: a dim-4 upload against a dim-6 model.
  SparseRowMatrix wrong_dim(4);
  auto row = wrong_dim.RowMutable(2);
  for (float& v : row) v = 0.25f;
  client.SendFrame(FrameType::kClientUpload,
                   EncodeClientUpload(wrong_dim, 9));
  const auto [error_type, error_payload] = client.NextFrame();
  EXPECT_EQ(error_type, FrameType::kError);

  const std::array<std::size_t, 1> rows = {4};
  client.SendFrame(
      FrameType::kClientUpload,
      EncodeClientUpload(MakeGradients(2, 0, rows), 2));
  EXPECT_EQ(client.ExpectRoundAck(), 0u);
  harness.Join();
  EXPECT_EQ(harness.stats().rejected_uploads, 1u);
}

TEST(FederationServiceTest, CorruptShardRepliesFallBackBitIdentically) {
  Rng service_init(9);
  MfModel service_model(kNumItems, ModelParams(), service_init);
  Rng reference_init(9);
  MfModel reference_model(kNumItems, ModelParams(), reference_init);

  // Every FRWD reply on every attempt is damaged: each shard exhausts its
  // retries and the coordinator aggregates its rows locally.
  FaultSpec spec;
  spec.delta_corrupt_rate = 1.0;
  spec.fault_seed = 4;
  const FaultPlan faults(spec, /*run_seed=*/1);
  const std::size_t shards = 2;
  const std::size_t rounds = 3;
  FederationService::Options options =
      ServiceHarness::MakeOptions(/*round_size=*/1, rounds);
  ServiceHarness harness(&service_model, shards, options, &faults);
  TestClient client(harness.port());
  const std::array<std::size_t, 4> rows = {1, 8, 16, 27};
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const SparseRowMatrix gradients = MakeGradients(3, r, rows);
    client.SendFrame(FrameType::kClientUpload,
                     EncodeClientUpload(gradients, 3));
    EXPECT_EQ(client.ExpectRoundAck(), r);

    ClientUpdate update;
    update.user = 3;
    update.item_gradients = gradients;
    ApplyReferenceRound(reference_model, std::span(&update, 1));
  }
  harness.Join();

  EXPECT_TRUE(service_model.item_factors() ==
              reference_model.item_factors());
  EXPECT_EQ(harness.stats().fallback_shards, rounds * shards);
  EXPECT_EQ(harness.stats().corrupt_messages,
            rounds * shards * (options.retry.max_retries + 1));
  EXPECT_EQ(harness.stats().shard_retries,
            rounds * shards * options.retry.max_retries);
  EXPECT_EQ(harness.stats().shard_outages, 0u);
}

TEST(FederationServiceTest, AckSkipsNewPeerOnRecycledFd) {
  Rng init(15);
  MfModel model(kNumItems, ModelParams(), init);
  auto harness = std::make_unique<ServiceHarness>(
      &model, /*num_shards=*/1, /*round_size=*/2, /*max_rounds=*/1);
  const std::array<std::size_t, 1> rows = {3};
  {
    // A uploads and leaves before the round closes. Waiting for the
    // service's close frees A's fd on both sides, so B's connect and the
    // service's accept get A's fd numbers back (lowest free fd first).
    TestClient a(harness->port());
    a.SendFrame(FrameType::kClientUpload,
                EncodeClientUpload(MakeGradients(1, 0, rows), 1));
    a.ShutdownWrite();
    EXPECT_TRUE(a.WaitForClose());
  }
  TestClient b(harness->port());
  b.SendFrame(FrameType::kClientUpload,
              EncodeClientUpload(MakeGradients(2, 0, rows), 2));
  EXPECT_EQ(b.ExpectRoundAck(), 0u);
  harness->Join();  // self-stopped at max_rounds after draining its acks
  EXPECT_EQ(harness->stats().rounds_completed, 1u);
  harness.reset();  // closes every connection
  EXPECT_EQ(b.CountFramesUntilClose(FrameType::kRoundAck), 0u)
      << "B received the ack of A's upload";
}

// --- S2 regression: byte-flip mid-stream ------------------------------------

TEST(FederationServiceTest, ByteFlipMidStreamClosesAndSlotReusesClean) {
  Rng init(10);
  MfModel model(kNumItems, ModelParams(), init);
  ServiceHarness harness(&model, /*num_shards=*/1, /*round_size=*/1,
                         /*max_rounds=*/2);
  {
    TestClient victim(harness.port());
    const std::array<std::size_t, 1> rows = {5};
    victim.SendFrame(FrameType::kClientUpload,
                     EncodeClientUpload(MakeGradients(1, 0, rows), 1));
    EXPECT_EQ(victim.ExpectRoundAck(), 0u);

    // A frame whose header magic took a bit flip in flight: framing is lost,
    // so the service must drop the connection (an in-payload flip would be
    // caught by the FRWU checksum instead and answered with kError).
    std::string flipped =
        EncodeClientUpload(MakeGradients(1, 1, rows), 1);
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(FrameType::kClientUpload, flipped.size(), header);
    header[2] ^= 0x10;
    std::string wire(header, sizeof(header));
    wire += flipped;
    victim.SendRaw(wire);
    EXPECT_TRUE(victim.WaitForClose()) << "poisoned stream kept the conn";
  }

  // The torn-down slot (likely the same fd number) must come back pristine:
  // no reader poison, no partial-write carry from the dead connection.
  TestClient fresh(harness.port());
  const std::array<std::size_t, 1> rows = {6};
  fresh.SendFrame(FrameType::kClientUpload,
                  EncodeClientUpload(MakeGradients(2, 1, rows), 2));
  EXPECT_EQ(fresh.ExpectRoundAck(), 1u);
  harness.Join();
  EXPECT_EQ(harness.stats().rounds_completed, 2u);
}

// --- S3: send-queue high water ----------------------------------------------

namespace {

struct OverloadOutcome {
  std::uint64_t shed_frames = 0;
  std::uint64_t retry_afters = 0;
  std::uint64_t rounds = 0;
  std::uint64_t allocations = 0;  ///< SparseAllocationCount delta of the run
};

/// One overload run: a client fires `uploads` rounds at a service whose
/// accepted sockets have a one-byte SO_SNDBUF, and never reads a single
/// reply from its locked receive buffer. Returns the shed/allocation ledger
/// of the run.
OverloadOutcome RunOverload(std::size_t uploads) {
  Rng init(11);
  MfModel model(kNumItems, ModelParams(), init);
  FederationService::Options options =
      ServiceHarness::MakeOptions(/*round_size=*/1, /*max_rounds=*/uploads);
  options.send_high_water = 1024;
  options.retry_after_ms = 25;
  options.so_sndbuf = 1;
  ResetSparseAllocationCount();
  OverloadOutcome outcome;
  {
    ServiceHarness harness(&model, /*num_shards=*/1, options);
    // A locked ~128 KiB buffer absorbs a few thousand 24-byte replies at
    // most, far fewer than the 16,000 extra uploads of the doubled run. (At
    // 4 KiB the peer's own uploads stalled for seconds under host load; an
    // unlocked buffer can absorb every reply.)
    TestClient client(harness.port(), /*rcvbuf=*/65536);
    const std::array<std::size_t, 1> rows = {7};
    const std::string upload =
        EncodeClientUpload(MakeGradients(3, 0, rows), 3);
    for (std::size_t r = 0; r < uploads; ++r) {
      client.SendFrame(FrameType::kClientUpload, upload);
    }
    harness.Join();  // self-stops at max_rounds; every round completed
    outcome.shed_frames = harness.stats().shed_frames;
    outcome.retry_afters = harness.stats().retry_afters_sent;
    outcome.rounds = harness.stats().rounds_completed;
  }
  outcome.allocations = SparseAllocationCount();
  return outcome;
}

}  // namespace

TEST(FederationServiceTest, StalledPeerShedsWithRetryAfterNotUnboundedGrowth) {
  const OverloadOutcome small = RunOverload(16000);
  ASSERT_EQ(small.rounds, 16000u) << "shedding must not stall rounds";
  EXPECT_GT(small.shed_frames, 0u) << "high water never breached";
  // One notice per *breach*, not per shed frame: the peer's rcvbuf slowly
  // absorbs bytes, so the queue can drain below high water and breach again,
  // but the notice count must stay orders below the shed count.
  EXPECT_GE(small.retry_afters, 1u) << "breach sent no overload notice";
  EXPECT_LT(small.retry_afters * 100, small.shed_frames)
      << "a notice per shed frame defeats the backpressure";

  // Twice the sheddable traffic must not grow the queue further: past the
  // high water every dropped reply is free, so the allocation ledger of the
  // doubled run stays flat instead of doubling (one growth event per staged
  // frame is what the broken, unbounded queue would record).
  const OverloadOutcome big = RunOverload(32000);
  ASSERT_EQ(big.rounds, 32000u);
  EXPECT_GT(big.shed_frames, small.shed_frames);
  EXPECT_LE(big.allocations, small.allocations + 128)
      << "allocation count scaled with shed traffic: queue is growing";
}

// --- Stop drains: what each owner serves once a stop lands -----------------

/// One FRNT frame as raw wire bytes.
std::string Frame(FrameType type, std::string_view payload) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(type, payload.size(), header);
  std::string frame(header, sizeof(header));
  frame += payload;
  return frame;
}

TEST(FederationServiceTest, StopAtMaxRoundsLeavesPipelinedUploadsUnserved) {
  Rng init(17);
  MfModel model(kNumItems, ModelParams(), init);
  ServiceHarness harness(&model, /*num_shards=*/1, /*round_size=*/1,
                         /*max_rounds=*/1);
  TestClient client(harness.port());
  // Two rounds of uploads in one write: both frames are buffered when the
  // first closes round max_rounds, and the second must never close another.
  const std::array<std::size_t, 1> rows = {4};
  std::string wire;
  for (std::uint32_t user = 1; user <= 2; ++user) {
    wire += Frame(FrameType::kClientUpload,
                  EncodeClientUpload(MakeGradients(user, 0, rows), user));
  }
  client.SendRaw(wire);
  EXPECT_EQ(client.ExpectRoundAck(), 0u);
  harness.Join();
  EXPECT_EQ(harness.stats().rounds_completed, 1u);
  EXPECT_EQ(harness.stats().uploads_received, 1u);
}

/// A ShardDaemon on a background thread. Join() — also run by the
/// destructor — stops it (a no-op after a kShutdown) and reaps the thread.
class DaemonHarness {
 public:
  explicit DaemonHarness(ShardDaemon::Options options) : daemon_(options) {
    daemon_.Listen().CheckOK();
    thread_ = std::thread([this] { daemon_.Run(); });
  }
  ~DaemonHarness() {
    if (thread_.joinable()) Join();
  }
  DaemonHarness(const DaemonHarness&) = delete;
  DaemonHarness& operator=(const DaemonHarness&) = delete;

  void Join() {
    daemon_.RequestStop();
    thread_.join();
  }
  std::uint16_t port() const { return daemon_.port(); }
  const ShardDaemon::Stats& stats() const { return daemon_.stats(); }

 private:
  ShardDaemon daemon_;
  std::thread thread_;
};

TEST(ShardDaemonStopTest, RoundBufferedAroundShutdownIsStillAnswered) {
  // Round then shutdown, and shutdown then round: either way the round was
  // buffered before the daemon stopped, so its kShardDelta still goes out.
  for (const bool shutdown_first : {false, true}) {
    SCOPED_TRACE(shutdown_first ? "shutdown first" : "round first");
    ShardDaemon::Options options;
    options.shard_index = 0;
    DaemonHarness daemon(options);
    TestClient coordinator(daemon.port());

    const ShardPlan plan(kNumItems, /*num_shards=*/1,
                         ShardPolicy::kContiguousRange);
    ShardHello hello;
    hello.run_fingerprint = 77;
    hello.num_items = kNumItems;
    hello.dim = kDim;
    hello.num_shards = 1;
    hello.shard_index = 0;
    hello.policy = static_cast<std::uint32_t>(plan.policy());
    BinaryWriter hello_wire;
    EncodeHello(hello, hello_wire);
    coordinator.SendFrame(FrameType::kHello, hello_wire.buffer());
    EXPECT_EQ(coordinator.NextFrame().first, FrameType::kHelloAck);

    // One round's delivery, routed the way the coordinator routes it.
    ShardServer routing(plan, kDim);
    std::vector<ClientUpdate> updates(1);
    updates[0].user = 3;
    const std::array<std::size_t, 2> rows = {2, 19};
    updates[0].item_gradients = MakeGradients(3, 0, rows);
    routing.RouteShard(updates, 0);
    BinaryWriter delivery;
    EncodeRoundHeader(MakeRoundHeader(/*round=*/0, /*round_size=*/1,
                                      /*krum_source=*/0,
                                      routing.message_count(0),
                                      AggregatorOptions{}),
                      delivery);
    delivery.mutable_buffer() += routing.inbox(0).buffer();
    const std::string round = Frame(FrameType::kShardRound, delivery.buffer());
    const std::string shutdown = Frame(FrameType::kShutdown, "");
    coordinator.SendRaw(shutdown_first ? shutdown + round : round + shutdown);

    EXPECT_EQ(coordinator.NextFrame().first, FrameType::kShardDelta);
    daemon.Join();
    EXPECT_EQ(daemon.stats().rounds_served, 1u);
  }
}

// --- Liveness: probe, reap, slow read, for both loop owners -----------------

/// A serving-loop owner on a background thread, reduced to what the
/// liveness suite needs. Both owners run the same FrameServer loop, so the
/// same peer behaviour must draw the same verdicts from each.
class LoopOwner {
 public:
  virtual ~LoopOwner() = default;
  virtual std::uint16_t port() const = 0;
  /// Sends one protocol request on `client` and checks it is answered.
  virtual void ExpectServed(TestClient& client) = 0;
  /// Stops the owner and joins its thread; stats() is stable afterwards.
  virtual void Stop() = 0;
  virtual const ServingStats& stats() const = 0;
};

/// The service closes one single-upload round, then self-stops.
class ServiceOwner final : public LoopOwner {
 public:
  explicit ServiceOwner(const LivenessOptions& liveness)
      : init_(12), model_(kNumItems, ModelParams(), init_) {
    FederationService::Options options =
        ServiceHarness::MakeOptions(/*round_size=*/1, /*max_rounds=*/1);
    options.liveness = liveness;
    harness_ = std::make_unique<ServiceHarness>(&model_, 1, options);
  }
  std::uint16_t port() const override { return harness_->port(); }
  void ExpectServed(TestClient& client) override {
    const std::array<std::size_t, 1> rows = {9};
    client.SendFrame(FrameType::kClientUpload,
                     EncodeClientUpload(MakeGradients(4, 0, rows), 4));
    EXPECT_EQ(client.ExpectRoundAck(), 0u);
  }
  void Stop() override { harness_->Join(); }
  const ServingStats& stats() const override { return harness_->stats(); }

 private:
  Rng init_;
  MfModel model_;
  std::unique_ptr<ServiceHarness> harness_;
};

/// The shardd answers a scrape (pre-hello, like any fleet scraper's).
class DaemonOwner final : public LoopOwner {
 public:
  explicit DaemonOwner(const LivenessOptions& liveness)
      : harness_(Options(liveness)) {}
  std::uint16_t port() const override { return harness_.port(); }
  void ExpectServed(TestClient& client) override {
    client.SendFrame(FrameType::kStatsRequest, "");
    EXPECT_EQ(client.NextFrame().first, FrameType::kStatsReply);
  }
  void Stop() override { harness_.Join(); }
  const ServingStats& stats() const override { return harness_.stats(); }

 private:
  static ShardDaemon::Options Options(const LivenessOptions& liveness) {
    ShardDaemon::Options options;
    options.shard_index = 0;
    options.liveness = liveness;
    return options;
  }
  DaemonHarness harness_;
};

class OwnerLivenessTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<LoopOwner> MakeOwner(const LivenessOptions& liveness) {
    if (GetParam() == "service") {
      return std::make_unique<ServiceOwner>(liveness);
    }
    return std::make_unique<DaemonOwner>(liveness);
  }
};

TEST_P(OwnerLivenessTest, IdleConnectionGetsHeartbeatProbe) {
  LivenessOptions liveness;
  liveness.heartbeat_interval_ms = 40;
  const std::unique_ptr<LoopOwner> owner = MakeOwner(liveness);

  TestClient client(owner->port());
  // Send nothing: the idle gap must draw exactly one probe, delivered as a
  // payload-free kHeartbeat frame.
  const auto [type, payload] = client.NextFrame();
  EXPECT_EQ(type, FrameType::kHeartbeat);
  EXPECT_TRUE(payload.empty());

  owner->ExpectServed(client);
  owner->Stop();
  EXPECT_GE(owner->stats().heartbeats_sent, 1u);
}

TEST_P(OwnerLivenessTest, SilentPeerIsReaped) {
  LivenessOptions liveness;
  liveness.peer_timeout_ms = 60;
  const std::unique_ptr<LoopOwner> owner = MakeOwner(liveness);

  TestClient silent(owner->port());
  EXPECT_TRUE(silent.WaitForClose()) << "half-open connection not reaped";

  // The reap freed the slot; a live client is still served.
  TestClient live(owner->port());
  owner->ExpectServed(live);
  owner->Stop();
  EXPECT_GE(owner->stats().peers_reaped, 1u);
}

TEST_P(OwnerLivenessTest, TricklingPartialFrameHitsReadDeadline) {
  LivenessOptions liveness;
  liveness.read_deadline_ms = 50;
  const std::unique_ptr<LoopOwner> owner = MakeOwner(liveness);

  TestClient loris(owner->port());
  // Half a frame header, then silence: reassembly state held hostage until
  // the read deadline closes the connection (slow-loris guard).
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kClientUpload, 64, header);
  loris.SendRaw(std::string_view(header, kFrameHeaderBytes / 2));
  EXPECT_TRUE(loris.WaitForClose()) << "trickling frame not closed";

  TestClient live(owner->port());
  owner->ExpectServed(live);
  owner->Stop();
  EXPECT_GE(owner->stats().slow_reads_closed, 1u);
}

INSTANTIATE_TEST_SUITE_P(Owners, OwnerLivenessTest,
                         ::testing::Values("service", "shardd"),
                         [](const auto& info) { return info.param; });

// --- Exposed series: each owner's scrape names -------------------------------

/// One scrape over `client`: the kStatsReply exposition text.
std::string Scrape(TestClient& client) {
  client.SendFrame(FrameType::kStatsRequest, "");
  auto [type, text] = client.NextFrame();
  EXPECT_EQ(type, FrameType::kStatsReply);
  return text;
}

/// A histogram's finite `_bucket` lines come and go with its observations
/// (buckets render up to the highest populated one); its series identity is
/// the `+Inf` bucket with `_sum` and `_count`.
bool IsFiniteBucket(std::string_view series) {
  return series.find("_bucket{") != std::string_view::npos &&
         series.find("le=\"+Inf\"") == std::string_view::npos;
}

/// The sorted `name{labels}` series of an exposition whose line contains
/// any of `needles` (the registry is process-global, so each owner's test
/// keeps only the series that owner names).
std::vector<std::string> SeriesMatching(
    const std::string& text, std::initializer_list<std::string_view> needles) {
  std::vector<std::string> series;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string_view::npos) {
      continue;
    }
    const std::string_view name = line.substr(0, space);
    if (IsFiniteBucket(name)) continue;
    for (const std::string_view needle : needles) {
      if (name.find(needle) != std::string_view::npos) {
        series.emplace_back(name);
        break;
      }
    }
  }
  std::sort(series.begin(), series.end());
  return series;
}

TEST(ExposedSeriesTest, ShardDaemonSeriesAreUnchanged) {
  ShardDaemon::Options options;
  options.shard_index = 5;  // a label no other test in this binary uses
  DaemonHarness daemon(options);
  TestClient scraper(daemon.port());
  const std::vector<std::string> expected = {
      "fedrec_heartbeat_rtt_ms_bucket{shard=\"5\",le=\"+Inf\"}",
      "fedrec_heartbeat_rtt_ms_count{shard=\"5\"}",
      "fedrec_heartbeat_rtt_ms_sum{shard=\"5\"}",
      "fedrec_shardd_connections_accepted{shard=\"5\"}",
      "fedrec_shardd_drain_deferrals{shard=\"5\"}",
      "fedrec_shardd_heartbeats_sent{shard=\"5\"}",
      "fedrec_shardd_hellos_accepted{shard=\"5\"}",
      "fedrec_shardd_hellos_rejected{shard=\"5\"}",
      "fedrec_shardd_peers_reaped{shard=\"5\"}",
      "fedrec_shardd_recoverable_errors{shard=\"5\"}",
      "fedrec_shardd_rounds_served{shard=\"5\"}",
      "fedrec_shardd_slow_reads_closed{shard=\"5\"}",
  };
  EXPECT_EQ(SeriesMatching(Scrape(scraper), {"shard=\"5\""}), expected);
}

TEST(ExposedSeriesTest, FederationServiceSeriesAreUnchanged) {
  Rng init(18);
  MfModel model(kNumItems, ModelParams(), init);
  ServiceHarness harness(&model, /*num_shards=*/1, /*round_size=*/1,
                         /*max_rounds=*/0);
  TestClient scraper(harness.port());
  const std::vector<std::string> expected = {
      "fedrec_coord_connections_accepted",
      "fedrec_coord_drain_deferrals",
      "fedrec_coord_heartbeats_sent",
      "fedrec_coord_peers_reaped",
      "fedrec_coord_rejected_uploads",
      "fedrec_coord_retry_afters_sent",
      "fedrec_coord_rounds_completed",
      "fedrec_coord_shed_frames",
      "fedrec_coord_slow_reads_closed",
      "fedrec_coord_upload_bytes",
      "fedrec_coord_uploads_received",
      "fedrec_fault_corrupt_messages{scope=\"wire\"}",
      "fedrec_fault_dropped_uploads{scope=\"wire\"}",
      "fedrec_fault_fallback_shards{scope=\"wire\"}",
      "fedrec_fault_shard_outages{scope=\"wire\"}",
      "fedrec_fault_shard_retries{scope=\"wire\"}",
      "fedrec_fault_skipped_rounds{scope=\"wire\"}",
      "fedrec_fault_straggler_uploads{scope=\"wire\"}",
      "fedrec_fault_virtual_ticks{scope=\"wire\"}",
      "fedrec_heartbeat_rtt_ms_bucket{shard=\"coord\",le=\"+Inf\"}",
      "fedrec_heartbeat_rtt_ms_count{shard=\"coord\"}",
      "fedrec_heartbeat_rtt_ms_sum{shard=\"coord\"}",
  };
  EXPECT_EQ(SeriesMatching(Scrape(scraper),
                           {"fedrec_coord_", "scope=\"wire\"",
                            "shard=\"coord\""}),
            expected);
}

}  // namespace
}  // namespace fedrec
