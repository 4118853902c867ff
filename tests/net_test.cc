#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/chaos_proxy.h"
#include "net/deadline_wheel.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/frame_server.h"
#include "net/liveness.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fedrec {
namespace {

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(type, payload.size(), header);
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
  return out;
}

/// Drains every complete frame currently buffered in `reader`.
std::vector<std::pair<FrameType, std::string>> DrainFrames(
    FrameReader& reader) {
  std::vector<std::pair<FrameType, std::string>> frames;
  for (;;) {
    FrameView view;
    bool has_frame = false;
    Status status = reader.Next(view, has_frame);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok() || !has_frame) break;
    frames.emplace_back(view.type, std::string(view.payload));
  }
  return frames;
}

// --- frame header codec ------------------------------------------------------

TEST(FrameHeaderTest, RoundTripsEveryType) {
  for (const FrameType type :
       {FrameType::kHello, FrameType::kHelloAck, FrameType::kShardRound,
        FrameType::kShardDelta, FrameType::kError, FrameType::kClientUpload,
        FrameType::kRoundAck, FrameType::kShutdown, FrameType::kHeartbeat,
        FrameType::kRetryAfter}) {
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(type, 0xBEEFCAFEull & (kMaxFramePayload - 1), header);
    FrameType decoded_type = FrameType::kError;
    std::uint64_t payload_bytes = 0;
    const Status status =
        DecodeFrameHeader(header, decoded_type, payload_bytes);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded_type, type);
    EXPECT_EQ(payload_bytes, 0xBEEFCAFEull & (kMaxFramePayload - 1));
  }
}

TEST(FrameHeaderTest, BadMagicIsCorruption) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kHello, 4, header);
  header[0] ^= 0x5A;
  FrameType type = FrameType::kError;
  std::uint64_t payload_bytes = 0;
  const Status status = DecodeFrameHeader(header, type, payload_bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(FrameHeaderTest, UnknownTypeIsCorruption) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(static_cast<FrameType>(999), 0, header);
  FrameType type = FrameType::kError;
  std::uint64_t payload_bytes = 0;
  const Status status = DecodeFrameHeader(header, type, payload_bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(FrameHeaderTest, OversizedLengthIsCorruption) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kShardRound, kMaxFramePayload + 1, header);
  FrameType type = FrameType::kError;
  std::uint64_t payload_bytes = 0;
  const Status status = DecodeFrameHeader(header, type, payload_bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

// --- FrameReader reassembly --------------------------------------------------

TEST(FrameReaderTest, SingleFeedYieldsFrame) {
  FrameReader reader;
  reader.Feed(EncodeFrame(FrameType::kShardDelta, "payload-bytes"));
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, FrameType::kShardDelta);
  EXPECT_EQ(frames[0].second, "payload-bytes");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(FrameReaderTest, EmptyPayloadFrame) {
  FrameReader reader;
  reader.Feed(EncodeFrame(FrameType::kHelloAck, ""));
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, FrameType::kHelloAck);
  EXPECT_TRUE(frames[0].second.empty());
}

TEST(FrameReaderTest, MultipleFramesInOneFeed) {
  std::string stream;
  stream += EncodeFrame(FrameType::kHello, "alpha");
  stream += EncodeFrame(FrameType::kShardRound, "");
  stream += EncodeFrame(FrameType::kError, "bravo-charlie");
  FrameReader reader;
  reader.Feed(stream);
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].second, "alpha");
  EXPECT_EQ(frames[1].first, FrameType::kShardRound);
  EXPECT_EQ(frames[2].second, "bravo-charlie");
}

TEST(FrameReaderTest, FragmentationAtEveryByteBoundaryIsBitIdentical) {
  // TCP may split the stream anywhere. Cut a two-frame stream at every byte
  // boundary and check the reassembled frames match the one-shot decode.
  std::string payload_a(37, '\0');
  for (std::size_t i = 0; i < payload_a.size(); ++i) {
    payload_a[i] = static_cast<char>(i * 7 + 1);
  }
  std::string stream;
  stream += EncodeFrame(FrameType::kShardRound, payload_a);
  stream += EncodeFrame(FrameType::kShardDelta, "tail");

  FrameReader reference;
  reference.Feed(stream);
  const auto expected = DrainFrames(reference);
  ASSERT_EQ(expected.size(), 2u);

  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameReader reader;
    reader.Feed(std::string_view(stream).substr(0, cut));
    auto frames = DrainFrames(reader);
    reader.Feed(std::string_view(stream).substr(cut));
    for (auto& frame : DrainFrames(reader)) frames.push_back(std::move(frame));
    ASSERT_EQ(frames.size(), expected.size()) << "cut=" << cut;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(frames[f].first, expected[f].first) << "cut=" << cut;
      EXPECT_EQ(frames[f].second, expected[f].second) << "cut=" << cut;
    }
  }
}

TEST(FrameReaderTest, ByteAtATimeFeedReassembles) {
  const std::string stream = EncodeFrame(FrameType::kClientUpload, "drip-fed");
  FrameReader reader;
  std::vector<std::pair<FrameType, std::string>> frames;
  for (char byte : stream) {
    reader.Feed(std::string_view(&byte, 1));
    for (auto& frame : DrainFrames(reader)) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].second, "drip-fed");
}

TEST(FrameReaderTest, PrepareCommitPathMatchesFeed) {
  // The socket read path deposits bytes directly into the retained buffer.
  const std::string stream = EncodeFrame(FrameType::kRoundAck, "via-prepare");
  FrameReader reader;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::size_t chunk = std::min<std::size_t>(5, stream.size() - offset);
    char* dst = reader.PrepareWrite(chunk);
    ASSERT_GE(reader.writable(), chunk);
    std::memcpy(dst, stream.data() + offset, chunk);
    reader.CommitWrite(chunk);
    offset += chunk;
  }
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].second, "via-prepare");
}

TEST(FrameReaderTest, CorruptHeaderPoisonsUntilReset) {
  FrameReader reader;
  std::string bad = EncodeFrame(FrameType::kHello, "x");
  bad[1] ^= 0x33;  // damage the magic
  reader.Feed(bad);
  FrameView view;
  bool has_frame = false;
  Status status = reader.Next(view, has_frame);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // Framing is lost: the reader stays poisoned even for pristine bytes.
  reader.Feed(EncodeFrame(FrameType::kHello, "y"));
  status = reader.Next(view, has_frame);
  ASSERT_FALSE(status.ok());
  // Reset clears the poison and the buffered garbage.
  reader.Reset();
  EXPECT_EQ(reader.pending(), 0u);
  reader.Feed(EncodeFrame(FrameType::kHello, "z"));
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].second, "z");
}

// --- SendQueue ---------------------------------------------------------------

/// A nonblocking socketpair with a tiny send buffer so Flush hits short
/// writes and EAGAIN long before a frame fits in one write(2).
struct TinyPipe {
  int writer = -1;
  int reader = -1;
  TinyPipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer = fds[0];
    reader = fds[1];
    const int tiny = 1;  // kernel clamps to its minimum, still far below 1MB
    ::setsockopt(writer, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
    ::setsockopt(reader, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    SetNonBlocking(writer).CheckOK();
    SetNonBlocking(reader).CheckOK();
  }
  ~TinyPipe() {
    CloseSocket(writer);
    CloseSocket(reader);
  }
};

TEST(SendQueueTest, ShortWritesDrainAcrossFlushes) {
  TinyPipe pipe;
  std::string payload(1 << 20, '\0');  // 1 MiB >> any SO_SNDBUF minimum
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  SendQueue queue;
  const std::string_view pieces[] = {std::string_view(payload)};
  queue.AppendFrame(FrameType::kShardDelta, pieces);
  ASSERT_EQ(queue.pending(), kFrameHeaderBytes + payload.size());

  // First flush must stop short: the frame cannot fit in the socket buffer.
  bool blocked = false;
  Status status = queue.Flush(pipe.writer, blocked);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(blocked);
  EXPECT_GT(queue.pending(), 0u);

  // Alternate draining the reader and flushing the tail until done.
  FrameReader reader;
  std::size_t flushes = 1;
  for (;;) {
    ReadOutcome outcome;
    char* dst = reader.PrepareWrite(64 * 1024);
    status = ReadSome(pipe.reader, dst, reader.writable(), outcome);
    ASSERT_TRUE(status.ok()) << status.ToString();
    reader.CommitWrite(outcome.bytes);
    FrameView view;
    bool has_frame = false;
    status = reader.Next(view, has_frame);
    ASSERT_TRUE(status.ok()) << status.ToString();
    if (has_frame) {
      EXPECT_EQ(view.type, FrameType::kShardDelta);
      EXPECT_EQ(view.payload, payload);
      break;
    }
    if (!queue.empty()) {
      status = queue.Flush(pipe.writer, blocked);
      ASSERT_TRUE(status.ok()) << status.ToString();
      ++flushes;
    }
    ASSERT_LT(flushes, 100000u) << "no progress";
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_GT(flushes, 1u) << "frame fit in one write; short-write not covered";
}

TEST(SendQueueTest, MultiplePieceFramesConcatenate) {
  TinyPipe pipe;
  SendQueue queue;
  const std::string_view pieces[] = {"head-", "middle-", "tail"};
  queue.AppendFrame(FrameType::kError, pieces);
  bool blocked = false;
  while (!queue.empty()) {
    const Status status = queue.Flush(pipe.writer, blocked);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  FrameReader reader;
  ReadOutcome outcome;
  char* dst = reader.PrepareWrite(4096);
  ReadSome(pipe.reader, dst, reader.writable(), outcome).CheckOK();
  reader.CommitWrite(outcome.bytes);
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].second, "head-middle-tail");
}

TEST(SendQueueTest, FlushOnClosedPeerIsIOError) {
  TinyPipe pipe;
  CloseSocket(pipe.reader);
  SendQueue queue;
  std::string payload(1 << 20, 'q');
  const std::string_view pieces[] = {std::string_view(payload)};
  queue.AppendFrame(FrameType::kShardDelta, pieces);
  // The first flush may land in the socket buffer; keep flushing until the
  // dead peer surfaces (EPIPE/ECONNRESET -> kIOError, the outage code).
  Status status;
  for (int i = 0; i < 64 && status.ok() && !queue.empty(); ++i) {
    bool blocked = false;
    status = queue.Flush(pipe.writer, blocked);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

// --- WriteAllVec -------------------------------------------------------------

TEST(WriteAllVecTest, GatheredPiecesArriveInOrder) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "payload-from-two-pieces";
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kClientUpload, payload.size(), header);
  const std::string_view pieces[] = {
      std::string_view(header, kFrameHeaderBytes),
      std::string_view(payload).substr(0, 7),
      std::string_view(payload).substr(7)};
  WriteAllVec(fds[0], pieces).CheckOK();

  std::string wire(kFrameHeaderBytes + payload.size(), '\0');
  ReadExact(fds[1], std::span<char>(wire.data(), wire.size())).CheckOK();
  FrameReader reader;
  reader.Feed(wire);
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, FrameType::kClientUpload);
  EXPECT_EQ(frames[0].second, payload);
  CloseSocket(fds[0]);
  CloseSocket(fds[1]);
}

TEST(WriteAllVecTest, LargePiecesSurvivePartialWrites) {
  // A tiny send buffer forces sendmsg to land far fewer bytes per call than
  // the gather holds, exercising the in-place iovec resumption (blocking fds
  // with a reader thread draining the other end).
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int tiny = 1;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));

  std::string expected;
  std::vector<std::string> chunks;
  for (int i = 0; i < 8; ++i) {
    chunks.push_back(
        std::string(128 * 1024 + i, static_cast<char>('a' + i)));
    expected += chunks.back();
  }
  std::vector<std::string_view> pieces(chunks.begin(), chunks.end());

  std::string wire(expected.size(), '\0');
  std::thread reader_thread([&] {
    ReadExact(fds[1], std::span<char>(wire.data(), wire.size())).CheckOK();
  });
  WriteAllVec(fds[0], pieces).CheckOK();
  reader_thread.join();
  EXPECT_TRUE(wire == expected);
  CloseSocket(fds[0]);
  CloseSocket(fds[1]);
}

// --- EpollLoop + TCP ---------------------------------------------------------

TEST(EpollLoopTest, ListenConnectAcceptEcho) {
  Result<int> listener = TcpListen("127.0.0.1", 0, 8);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<std::uint16_t> port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  SetNonBlocking(listener.value()).CheckOK();

  EpollLoop loop;
  loop.Watch(listener.value(), EPOLLIN, 1).CheckOK();

  Result<int> client = TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  SetIoTimeout(client.value(), 2000).CheckOK();

  // Accept via epoll readiness.
  int server_fd = -1;
  for (int spin = 0; spin < 100 && server_fd < 0; ++spin) {
    for (const epoll_event& event : loop.Wait(100)) {
      if (event.data.u64 == 1) {
        TcpAccept(listener.value(), server_fd).CheckOK();
      }
    }
  }
  ASSERT_GE(server_fd, 0) << "accept never became ready";
  SetNonBlocking(server_fd).CheckOK();
  loop.Watch(server_fd, EPOLLIN, 2).CheckOK();

  // Client sends a frame (blocking); server echoes it back via SendQueue.
  const std::string payload = "echo-me";
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kError, payload.size(), header);
  const std::string_view out_pieces[] = {
      std::string_view(header, kFrameHeaderBytes), std::string_view(payload)};
  WriteAllVec(client.value(), out_pieces).CheckOK();

  FrameReader server_reader;
  SendQueue server_out;
  bool echoed = false;
  for (int spin = 0; spin < 100 && !echoed; ++spin) {
    for (const epoll_event& event : loop.Wait(100)) {
      if (event.data.u64 != 2) continue;
      ReadOutcome outcome;
      char* dst = server_reader.PrepareWrite(4096);
      ReadSome(server_fd, dst, server_reader.writable(), outcome).CheckOK();
      server_reader.CommitWrite(outcome.bytes);
      FrameView view;
      bool has_frame = false;
      server_reader.Next(view, has_frame).CheckOK();
      if (!has_frame) continue;
      const std::string_view echo_pieces[] = {view.payload};
      server_out.AppendFrame(view.type, echo_pieces);
      bool blocked = false;
      while (!server_out.empty()) {
        server_out.Flush(server_fd, blocked).CheckOK();
      }
      echoed = true;
    }
  }
  ASSERT_TRUE(echoed);

  // Client reads the echo back (blocking, bounded by the io timeout).
  std::string echo_wire(kFrameHeaderBytes + payload.size(), '\0');
  ReadExact(client.value(), std::span<char>(echo_wire.data(), echo_wire.size()))
      .CheckOK();
  FrameReader client_reader;
  client_reader.Feed(echo_wire);
  const auto frames = DrainFrames(client_reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].second, payload);

  loop.Remove(server_fd);
  loop.Remove(listener.value());
  int client_fd = client.value();
  int listen_fd = listener.value();
  CloseSocket(server_fd);
  CloseSocket(client_fd);
  CloseSocket(listen_fd);
}

// --- FrameReader payload cap -------------------------------------------------

TEST(FrameReaderTest, OverCapPayloadPoisonsBeforeBuffering) {
  FrameReader reader;
  reader.set_max_payload(16);
  // Within the cap: passes.
  reader.Feed(EncodeFrame(FrameType::kHello, "under-cap"));
  auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  // One byte over: the header alone poisons the stream — the reader must not
  // wait for (or buffer) a payload it already knows it will refuse.
  const std::string big(17, 'b');
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kHello, big.size(), header);
  reader.Feed(std::string_view(header, sizeof(header)));
  FrameView view;
  bool has_frame = false;
  Status status = reader.Next(view, has_frame);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The cap survives Reset: it is connection policy, not stream state.
  reader.Reset();
  reader.Feed(std::string_view(header, sizeof(header)));
  status = reader.Next(view, has_frame);
  ASSERT_FALSE(status.ok());
}

// --- SendQueue reset (S2 regression) ----------------------------------------

TEST(SendQueueTest, ResetClearsPartialWriteCarry) {
  // Stage a frame too large for the tiny socket buffer, flush once so the
  // queue is left mid-frame (partial-write carry), then Reset — the exact
  // sequence a service runs when a byte-flipped stream poisons the reader
  // and the connection slot is torn down for reuse.
  TinyPipe stalled;
  SendQueue queue;
  std::string old_payload(1 << 20, 'o');
  const std::string_view old_pieces[] = {std::string_view(old_payload)};
  queue.AppendFrame(FrameType::kShardDelta, old_pieces);
  bool blocked = false;
  ASSERT_TRUE(queue.Flush(stalled.writer, blocked).ok());
  ASSERT_TRUE(blocked);
  ASSERT_GT(queue.pending(), 0u) << "frame fit the buffer; carry not covered";

  queue.Reset();
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_TRUE(queue.empty());

  // The queue now serves a fresh connection: the peer must see exactly the
  // new frame, with no tail bytes of the abandoned one leaking in front.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string_view new_pieces[] = {std::string_view("fresh-frame")};
  queue.AppendFrame(FrameType::kRoundAck, new_pieces);
  while (!queue.empty()) {
    ASSERT_TRUE(queue.Flush(fds[0], blocked).ok());
  }
  FrameReader reader;
  ReadOutcome outcome;
  char* dst = reader.PrepareWrite(4096);
  ReadSome(fds[1], dst, reader.writable(), outcome).CheckOK();
  reader.CommitWrite(outcome.bytes);
  const auto frames = DrainFrames(reader);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, FrameType::kRoundAck);
  EXPECT_EQ(frames[0].second, "fresh-frame");
  CloseSocket(fds[0]);
  CloseSocket(fds[1]);
}

// --- DeadlineWheel -----------------------------------------------------------

TEST(DeadlineWheelTest, ArmExpireDisarm) {
  DeadlineWheel wheel(/*slot_ms=*/16, /*slot_count=*/8);
  std::vector<std::uint64_t> due;
  wheel.Arm(3, 100);
  wheel.Arm(5, 40);
  EXPECT_EQ(wheel.armed_count(), 2u);
  std::uint64_t next = 0;
  ASSERT_TRUE(wheel.NextDeadline(next));
  EXPECT_EQ(next, 40u);

  wheel.ExpireDue(39, due);
  EXPECT_TRUE(due.empty());
  wheel.ExpireDue(40, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 5u);
  EXPECT_FALSE(wheel.armed(5));
  EXPECT_TRUE(wheel.armed(3));

  wheel.Disarm(3);
  EXPECT_EQ(wheel.armed_count(), 0u);
  due.clear();
  wheel.ExpireDue(1000, due);
  EXPECT_TRUE(due.empty()) << "disarmed tag still fired";
  EXPECT_FALSE(wheel.NextDeadline(next));
}

TEST(DeadlineWheelTest, ReArmMovesTheDeadline) {
  DeadlineWheel wheel(16, 8);
  std::vector<std::uint64_t> due;
  wheel.Arm(7, 50);
  wheel.Arm(7, 500);  // push it out; only the new deadline may fire
  EXPECT_EQ(wheel.armed_count(), 1u);
  wheel.ExpireDue(499, due);
  EXPECT_TRUE(due.empty());
  wheel.ExpireDue(500, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 7u);
}

TEST(DeadlineWheelTest, WrappedDeadlineSurvivesEarlySweeps) {
  // Span = 16 * 8 = 128 ms; a deadline 3 revolutions out shares a slot with
  // near deadlines and must be re-inserted, not fired, by early sweeps.
  DeadlineWheel wheel(16, 8);
  std::vector<std::uint64_t> due;
  wheel.Arm(1, 400);
  for (std::uint64_t now = 0; now < 400; now += 16) {
    wheel.ExpireDue(now, due);
    EXPECT_TRUE(due.empty()) << "fired early at " << now;
  }
  wheel.ExpireDue(400, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
}

TEST(DeadlineWheelTest, PastDeadlineFiresOnNextSweep) {
  DeadlineWheel wheel(16, 8);
  std::vector<std::uint64_t> due;
  wheel.ExpireDue(300, due);  // advance the cursor
  wheel.Arm(2, 100);          // already in the past
  wheel.ExpireDue(301, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 2u);
}

// --- Liveness policy ---------------------------------------------------------

TEST(LivenessTest, NextDeadlineFoldsEarliestFeature) {
  LivenessOptions options;
  PeerLiveness peer;
  peer.last_activity_ms = 1000;
  EXPECT_EQ(NextLivenessDeadline(options, peer), 0u) << "all features off";

  options.heartbeat_interval_ms = 500;
  options.peer_timeout_ms = 2000;
  EXPECT_EQ(NextLivenessDeadline(options, peer), 1500u) << "probe first";

  peer.probe_sent = true;
  EXPECT_EQ(NextLivenessDeadline(options, peer), 3000u)
      << "one probe per silence: next is the reap";

  options.read_deadline_ms = 100;
  peer.read_start_ms = 2800;
  EXPECT_EQ(NextLivenessDeadline(options, peer), 2900u)
      << "overdue partial frame beats the reap";
}

TEST(LivenessTest, ClassifySeverityOrder) {
  LivenessOptions options;
  options.heartbeat_interval_ms = 100;
  options.peer_timeout_ms = 300;
  options.read_deadline_ms = 50;
  PeerLiveness peer;
  peer.last_activity_ms = 0;
  peer.read_start_ms = 10;

  // At t=400 every feature is due: slow-read outranks reap outranks probe.
  EXPECT_EQ(ClassifyDeadline(options, peer, 400), LivenessVerdict::kSlowRead);
  peer.read_start_ms = 0;
  EXPECT_EQ(ClassifyDeadline(options, peer, 400), LivenessVerdict::kReap);
  EXPECT_EQ(ClassifyDeadline(options, peer, 150), LivenessVerdict::kProbe);
  peer.probe_sent = true;
  EXPECT_EQ(ClassifyDeadline(options, peer, 150), LivenessVerdict::kNone);
  peer.last_activity_ms = 140;
  peer.probe_sent = false;
  EXPECT_EQ(ClassifyDeadline(options, peer, 150), LivenessVerdict::kNone)
      << "fresh activity: stale wheel expiry must be a no-op";
}

// --- ChaosProxy --------------------------------------------------------------

TEST(ChaosDrawTest, PureFunctionOfKey) {
  ChaosSpec spec;
  spec.chaos_seed = 77;
  spec.reset_rate = 0.1;
  spec.corrupt_rate = 0.2;
  spec.delay_rate = 0.2;
  spec.partition_rate = 0.1;
  for (std::uint64_t conn = 0; conn < 4; ++conn) {
    for (std::uint64_t event = 0; event < 64; ++event) {
      const ChaosDecision a = DrawChaos(spec, conn, event);
      const ChaosDecision b = DrawChaos(spec, conn, event);
      EXPECT_EQ(static_cast<int>(a.action), static_cast<int>(b.action));
      EXPECT_EQ(a.corrupt_offset, b.corrupt_offset);
      EXPECT_EQ(a.corrupt_bit, b.corrupt_bit);
      EXPECT_EQ(a.delay_ms, b.delay_ms);
    }
  }
}

TEST(ChaosDrawTest, ZeroRatesAlwaysForward) {
  ChaosSpec spec;
  spec.chaos_seed = 99;
  for (std::uint64_t event = 0; event < 256; ++event) {
    EXPECT_EQ(static_cast<int>(DrawChaos(spec, 0, event).action),
              static_cast<int>(ChaosAction::kForward));
  }
}

TEST(ChaosDrawTest, RatesShapeTheDrawAndBoundsHold) {
  ChaosSpec spec;
  spec.chaos_seed = 5;
  spec.corrupt_rate = 1.0;
  std::size_t distinct_offsets = 0;
  std::uint32_t last_offset = 0;
  for (std::uint64_t event = 0; event < 128; ++event) {
    const ChaosDecision d = DrawChaos(spec, 3, event);
    ASSERT_EQ(static_cast<int>(d.action),
              static_cast<int>(ChaosAction::kCorrupt));
    EXPECT_LT(d.corrupt_offset, spec.window_bytes);
    EXPECT_LT(d.corrupt_bit, 8u);
    if (event == 0 || d.corrupt_offset != last_offset) ++distinct_offsets;
    last_offset = d.corrupt_offset;
  }
  EXPECT_GT(distinct_offsets, 1u) << "offset stream is degenerate";

  spec.corrupt_rate = 0.0;
  spec.delay_rate = 1.0;
  const ChaosDecision delay = DrawChaos(spec, 3, 0);
  ASSERT_EQ(static_cast<int>(delay.action),
            static_cast<int>(ChaosAction::kDelay));
  EXPECT_GE(delay.delay_ms, 1u);
  EXPECT_LE(delay.delay_ms, spec.delay_max_ms);
}

namespace {
/// Echo server: accepts one connection, echoes until EOF.
void EchoOnce(int listen_fd) {
  int fd = -1;
  while (fd < 0) {
    if (!TcpAccept(listen_fd, fd).ok()) return;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    ssize_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, buf + off, static_cast<std::size_t>(n - off),
                               MSG_NOSIGNAL);
      if (w <= 0) break;
      off += w;
    }
  }
  CloseSocket(fd);
}
}  // namespace

TEST(ChaosProxyTest, ZeroChaosIsATransparentRelay) {
  Result<int> upstream = TcpListen("127.0.0.1", 0, 4);
  ASSERT_TRUE(upstream.ok());
  Result<std::uint16_t> upstream_port = BoundPort(upstream.value());
  ASSERT_TRUE(upstream_port.ok());
  std::thread echo([fd = upstream.value()] { EchoOnce(fd); });

  ChaosProxy::Options options;
  options.upstream_port = upstream_port.value();
  auto proxy = std::make_unique<ChaosProxy>(options);
  ASSERT_TRUE(proxy->Listen().ok());
  std::thread relay([&proxy] { proxy->Run(); });

  Result<int> client = TcpConnect("127.0.0.1", proxy->port());
  ASSERT_TRUE(client.ok());
  SetIoTimeout(client.value(), 5000).CheckOK();
  const std::string message = "through-the-looking-glass";
  const std::string_view pieces[] = {std::string_view(message)};
  ASSERT_TRUE(WriteAllVec(client.value(), pieces).ok());
  std::string round_trip(message.size(), '\0');
  ASSERT_TRUE(
      ReadExact(client.value(), std::span<char>(round_trip.data(),
                                                round_trip.size()))
          .ok());
  EXPECT_EQ(round_trip, message);

  int client_fd = client.value();
  CloseSocket(client_fd);
  proxy->RequestStop();
  relay.join();
  const ChaosProxy::Stats stats = proxy->stats();
  // The stop can land before the relay saw the client's close, leaving the
  // upstream link open: destroying the proxy closes it, so the echo thread
  // reads EOF instead of blocking forever.
  proxy.reset();
  int upstream_fd = upstream.value();
  CloseSocket(upstream_fd);
  echo.join();

  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GE(stats.bytes_forwarded, 2 * message.size());
  EXPECT_EQ(stats.resets_injected, 0u);
  EXPECT_EQ(stats.corruptions_injected, 0u);
}

TEST(ChaosProxyTest, CertainResetKillsTheConnection) {
  Result<int> upstream = TcpListen("127.0.0.1", 0, 4);
  ASSERT_TRUE(upstream.ok());
  Result<std::uint16_t> upstream_port = BoundPort(upstream.value());
  ASSERT_TRUE(upstream_port.ok());
  std::thread echo([fd = upstream.value()] { EchoOnce(fd); });

  ChaosProxy::Options options;
  options.upstream_port = upstream_port.value();
  options.chaos.chaos_seed = 1;
  options.chaos.reset_rate = 1.0;  // first window of either direction resets
  ChaosProxy proxy(options);
  ASSERT_TRUE(proxy.Listen().ok());
  std::thread relay([&proxy] { proxy.Run(); });

  Result<int> client = TcpConnect("127.0.0.1", proxy.port());
  ASSERT_TRUE(client.ok());
  SetIoTimeout(client.value(), 5000).CheckOK();
  const std::string_view pieces[] = {std::string_view("doomed")};
  // The write may land in the socket buffer before the RST arrives; the
  // failure must surface on (at latest) the read.
  (void)WriteAllVec(client.value(), pieces);
  char byte = 0;
  const Status read = ReadExact(client.value(), std::span<char>(&byte, 1));
  EXPECT_FALSE(read.ok()) << "reset window still delivered bytes";

  int client_fd = client.value();
  CloseSocket(client_fd);
  proxy.RequestStop();
  relay.join();
  int upstream_fd = upstream.value();
  CloseSocket(upstream_fd);
  echo.join();
  EXPECT_EQ(proxy.stats().resets_injected, 1u);
  EXPECT_EQ(proxy.stats().bytes_forwarded, 0u);
}

TEST(TcpConnectTest, RefusedConnectionIsIOError) {
  // Bind-then-close to find a port that is (momentarily) free and refused.
  Result<int> listener = TcpListen("127.0.0.1", 0, 1);
  ASSERT_TRUE(listener.ok());
  Result<std::uint16_t> port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());
  int fd = listener.value();
  CloseSocket(fd);
  Result<int> client = TcpConnect("127.0.0.1", port.value());
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kIOError);
}

// --- FrameServer: the shared serving loop ----------------------------------

namespace {

/// Blocking FRNT peer of a FrameServer under test.
class LoopPeer {
 public:
  explicit LoopPeer(std::uint16_t port) {
    Result<int> fd = TcpConnect("127.0.0.1", port);
    fd.status().CheckOK();
    fd_ = fd.value();
    SetIoTimeout(fd_, 5000).CheckOK();
  }
  ~LoopPeer() { CloseSocket(fd_); }
  LoopPeer(const LoopPeer&) = delete;
  LoopPeer& operator=(const LoopPeer&) = delete;

  void Send(std::string_view bytes) {
    const std::array<std::string_view, 1> pieces = {bytes};
    WriteAllVec(fd_, pieces).CheckOK();
  }

  /// Half-closes the connection: the server reads EOF after the bytes
  /// already sent, and may still answer them.
  void ShutdownWrite() { FEDREC_CHECK_EQ(::shutdown(fd_, SHUT_WR), 0); }

  /// The next frame from the server; type kError with payload "closed" once
  /// the server has closed the connection.
  std::pair<FrameType, std::string> NextFrame() {
    for (;;) {
      FrameView view;
      bool has_frame = false;
      reader_.Next(view, has_frame).CheckOK();
      if (has_frame) return {view.type, std::string(view.payload)};
      char* tail = reader_.PrepareWrite(64 * 1024);
      ReadOutcome outcome;
      if (!ReadSome(fd_, tail, reader_.writable(), outcome).ok() ||
          outcome.eof) {
        return {FrameType::kError, "closed"};
      }
      FEDREC_CHECK(!outcome.would_block) << "server reply timed out";
      reader_.CommitWrite(outcome.bytes);
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

/// Counts flood frames (kClientUpload "x") and answers a "ping" upload with
/// a kRoundAck; samples the deferred queue from inside the loop.
class FloodHandler final : public FrameServer::Handler {
 public:
  bool HandleFrame(PeerId peer, const FrameView& frame) override {
    if (frame.type != FrameType::kClientUpload) return false;
    peak_deferred = std::max(peak_deferred, server->deferred_connections());
    if (frame.payload == "ping") {
      server->Send(peer, FrameType::kRoundAck, {});
    } else {
      flood_served.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  void PublishStats() override {}

  FrameServer* server = nullptr;
  std::atomic<std::size_t> flood_served{0};
  std::size_t peak_deferred = 0;  ///< serving thread; read after the join
};

/// Answers every kClientUpload with `replies_per_frame` kRoundAck frames
/// echoing its payload.
class EchoHandler final : public FrameServer::Handler {
 public:
  explicit EchoHandler(std::size_t replies_per_frame)
      : replies_per_frame_(replies_per_frame) {}
  bool HandleFrame(PeerId peer, const FrameView& frame) override {
    if (frame.type != FrameType::kClientUpload) return false;
    const std::array<std::string_view, 1> pieces = {frame.payload};
    for (std::size_t i = 0; i < replies_per_frame_; ++i) {
      server->Send(peer, FrameType::kRoundAck, pieces);
    }
    return true;
  }
  void PublishStats() override {}

  FrameServer* server = nullptr;

 private:
  std::size_t replies_per_frame_;
};

/// A histogram's finite `_bucket` lines come and go with its observations
/// (buckets render up to the highest populated one); its series identity is
/// the `+Inf` bucket with `_sum` and `_count`.
bool IsFiniteBucket(std::string_view series) {
  return series.find("_bucket{") != std::string_view::npos &&
         series.find("le=\"+Inf\"") == std::string_view::npos;
}

/// The sorted `name{labels}` series of a text exposition.
std::vector<std::string> SeriesOf(const std::string& text) {
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
    if (IsFiniteBucket(line.substr(0, space))) continue;
    series.emplace_back(line.substr(0, space));
  }
  std::sort(series.begin(), series.end());
  return series;
}

}  // namespace

TEST(FrameServerTest, DeferredDrainQueuesEachConnectionOnce) {
  // One frame per connection per turn: a peer that keeps writing is cut
  // short every turn, and fresh EPOLLIN events keep landing on it while it
  // already waits in the deferred queue. It must be queued once — a second
  // entry would serve it twice per turn and grow the queue every turn.
  FloodHandler handler;
  ServingStats stats;
  FrameServer::Options options;
  options.max_frames_per_drain = 1;
  auto server = std::make_unique<FrameServer>(options, &handler, &stats);
  handler.server = server.get();
  ASSERT_TRUE(server->Listen().ok());
  server->RunOnThread();

  constexpr std::size_t kWrites = 400;
  constexpr std::size_t kFramesPerWrite = 25;
  const std::size_t total = kWrites * kFramesPerWrite;
  LoopPeer flooder(server->port());
  LoopPeer other(server->port());
  std::string burst;
  for (std::size_t i = 0; i < kFramesPerWrite; ++i) {
    burst += EncodeFrame(FrameType::kClientUpload, "x");
  }
  std::thread writer([&] {
    for (std::size_t w = 0; w < kWrites; ++w) flooder.Send(burst);
  });
  // The second peer's request is answered while the flood is served.
  other.Send(EncodeFrame(FrameType::kClientUpload, "ping"));
  EXPECT_EQ(other.NextFrame().first, FrameType::kRoundAck);
  writer.join();
  for (int i = 0; i < 5000 && handler.flood_served.load() < total; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.reset();  // stops and joins the serving thread

  EXPECT_EQ(handler.flood_served.load(), total);
  EXPECT_GT(stats.drain_deferrals, 0u) << "the flood never hit the cap";
  EXPECT_LE(handler.peak_deferred, 2u)
      << "a connection sat in the deferred queue more than once";
}

TEST(FrameServerTest, OneSendPerConnectionPerTurn) {
  // Every reply a handler stages in one loop turn leaves in one send() per
  // connection. Each peer has one request in flight at a time, so every
  // request is served in a turn of its own on its connection: the whole
  // exchange costs one send() per request, not one per reply.
  constexpr std::size_t kRepliesPerFrame = 16;
  constexpr std::size_t kPeers = 3;
  constexpr std::size_t kRequests = 20;
  obs::Counter* send_calls =
      obs::Registry::Global().GetCounter("fedrec_net_send_calls_total");
  EchoHandler handler(kRepliesPerFrame);
  auto server = std::make_unique<FrameServer>(FrameServer::Options{},
                                              &handler);
  handler.server = server.get();
  ASSERT_TRUE(server->Listen().ok());
  server->RunOnThread();
  std::vector<std::unique_ptr<LoopPeer>> peers;
  for (std::size_t p = 0; p < kPeers; ++p) {
    peers.push_back(std::make_unique<LoopPeer>(server->port()));
  }

  const std::uint64_t before = send_calls->Value();
  for (std::size_t r = 0; r < kRequests; ++r) {
    const std::string payload = "request " + std::to_string(r);
    for (std::unique_ptr<LoopPeer>& peer : peers) {
      peer->Send(EncodeFrame(FrameType::kClientUpload, payload));
    }
    for (std::unique_ptr<LoopPeer>& peer : peers) {
      for (std::size_t i = 0; i < kRepliesPerFrame; ++i) {
        auto [type, reply] = peer->NextFrame();
        ASSERT_EQ(type, FrameType::kRoundAck);
        ASSERT_EQ(reply, payload);
      }
    }
  }
  server.reset();  // joins the serving thread: its last send is counted
  EXPECT_EQ(send_calls->Value() - before, kPeers * kRequests);
}

TEST(FrameServerTest, HalfClosedPeerReadsEveryReplyBeforeEof) {
  // A peer that writes its requests and half-closes is answered in full
  // before the server closes: the EOF turn's replies are flushed ahead of
  // the close, and more requests than one drain serves span several turns.
  constexpr std::size_t kRequests = 150;
  constexpr std::size_t kRepliesPerFrame = 2;
  EchoHandler handler(kRepliesPerFrame);
  auto server = std::make_unique<FrameServer>(FrameServer::Options{},
                                              &handler);
  handler.server = server.get();
  ASSERT_TRUE(server->Listen().ok());
  server->RunOnThread();

  LoopPeer peer(server->port());
  std::string burst;
  for (std::size_t r = 0; r < kRequests; ++r) {
    burst += EncodeFrame(FrameType::kClientUpload, std::to_string(r));
  }
  peer.Send(burst);
  peer.ShutdownWrite();
  for (std::size_t r = 0; r < kRequests; ++r) {
    for (std::size_t i = 0; i < kRepliesPerFrame; ++i) {
      auto [type, reply] = peer.NextFrame();
      ASSERT_EQ(type, FrameType::kRoundAck) << "request " << r;
      ASSERT_EQ(reply, std::to_string(r));
    }
  }
  EXPECT_EQ(peer.NextFrame().second, "closed");
}

TEST(FrameServerTest, StatsEndpointScrapesWhileAnotherThreadRecords) {
  // fedrec_coord's --stats-port: the loop with no protocol handler on its
  // own thread, scraped while the main thread keeps recording.
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* records = registry.GetCounter("fedrec_test_records_total");
  obs::Gauge* level = registry.GetGauge("fedrec_test_level");
  obs::Histogram* latency =
      registry.GetHistogram("fedrec_test_latency_us", "side=\"recorder\"");
  FrameServer endpoint{FrameServer::Options{}};
  ASSERT_TRUE(endpoint.Listen().ok());
  endpoint.RunOnThread();

  std::atomic<bool> done{false};
  std::thread recorder([&] {
    std::uint64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      records->Increment();
      level->Set(static_cast<std::int64_t>(i % 7));
      latency->Observe(i++ % 5000);
    }
  });
  LoopPeer scraper(endpoint.port());
  std::string text;
  for (int scrape = 0; scrape < 50; ++scrape) {
    scraper.Send(EncodeFrame(FrameType::kStatsRequest, ""));
    auto [type, payload] = scraper.NextFrame();
    ASSERT_EQ(type, FrameType::kStatsReply);
    text = std::move(payload);
  }
  done.store(true);
  recorder.join();

  // The endpoint exposes the registry verbatim: no series of its own (no
  // serving gauges, no probe histogram), none of the registry's missing.
  std::string direct;
  registry.RenderText(direct);
  EXPECT_EQ(SeriesOf(text), SeriesOf(direct));
  EXPECT_NE(text.find("fedrec_test_records_total "), std::string::npos);

  // Without a protocol handler, any other frame closes the connection.
  LoopPeer stranger(endpoint.port());
  stranger.Send(EncodeFrame(FrameType::kClientUpload, "x"));
  EXPECT_EQ(stranger.NextFrame().second, "closed");
}

}  // namespace
}  // namespace fedrec
