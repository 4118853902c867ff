#include "shard/federation_service.h"

#include <array>
#include <utility>

#include "obs/stats_bridge.h"
#include "shard/shard_protocol.h"
#include "shard/wire.h"

namespace fedrec {

namespace {

FrameServer::Options LoopOptions(const FederationService::Options& options) {
  FrameServer::Options loop;
  loop.host = options.host;
  loop.port = options.port;
  loop.liveness = options.liveness;
  loop.max_frame_payload = options.max_frame_payload;
  loop.max_frames_per_drain = options.max_frames_per_drain;
  loop.send_high_water = options.send_high_water;
  loop.retry_after_ms = options.retry_after_ms;
  loop.so_sndbuf = options.so_sndbuf;
  loop.metric_prefix = "fedrec_coord_";
  loop.rtt_label = "shard=\"coord\"";
  return loop;
}

}  // namespace

FederationService::FederationService(MfModel* model, ShardTransport* transport,
                                     Options options)
    : model_(model),
      transport_(transport),
      options_(std::move(options)),
      loop_(LoopOptions(options_), this, &stats_, &stats_) {
  FEDREC_CHECK(model_ != nullptr);
  FEDREC_CHECK(transport_ != nullptr);
  FEDREC_CHECK_GT(options_.round_size, 0u);
  FEDREC_CHECK_EQ(transport_->server().plan().num_items(),
                  model_->num_items());
  FEDREC_CHECK_EQ(transport_->server().dim(), model_->dim());
  updates_.resize(options_.round_size);
  for (ClientUpdate& update : updates_) {
    update.item_gradients.Reset(model_->dim());
  }
  participants_.assign(options_.round_size, PeerId{});
  // One-time metric registration (never on the upload or round paths).
  obs::Registry& registry = obs::Registry::Global();
  metrics_.rounds_completed = registry.GetGauge("fedrec_coord_rounds_completed");
  metrics_.uploads_received = registry.GetGauge("fedrec_coord_uploads_received");
  metrics_.upload_bytes = registry.GetGauge("fedrec_coord_upload_bytes");
  metrics_.rejected_uploads = registry.GetGauge("fedrec_coord_rejected_uploads");
}

bool FederationService::HandleFrame(PeerId peer, const FrameView& frame) {
  // Clients send only uploads (plus the loop's own frames).
  return frame.type == FrameType::kClientUpload &&
         HandleUpload(peer, frame.payload);
}

void FederationService::PublishStats() {
  metrics_.rounds_completed->Set(
      static_cast<std::int64_t>(stats_.rounds_completed));
  metrics_.uploads_received->Set(
      static_cast<std::int64_t>(stats_.uploads_received));
  metrics_.upload_bytes->Set(static_cast<std::int64_t>(stats_.upload_bytes));
  metrics_.rejected_uploads->Set(
      static_cast<std::int64_t>(stats_.rejected_uploads));
  obs::PublishFaultStats(stats_, "wire");
}

// fedrec:hot — upload fan-in: one FRWU decode in place from the connection
// buffer into a recycled ClientUpdate slot. Thousands of clients per round
// land here; no copies of the payload, no heap growth.
bool FederationService::HandleUpload(PeerId peer,
                                     std::string_view payload) {
  ClientUpdate& slot = updates_[pending_];
  BinaryReader reader = BinaryReader::View(payload);
  Result<std::uint64_t> source = DecodeUpload(reader, slot.item_gradients);
  Status status = source.ok() ? Status::OK() : source.status();
  if (status.ok() && !reader.exhausted()) {
    status = Status::Corruption("trailing bytes after FRWU upload");
  }
  if (status.ok() && slot.item_gradients.cols() != model_->dim()) {
    status = Status::Corruption("upload dimension mismatch");
  }
  if (!status.ok()) {
    // The frame layer already delimited the message, so a bad upload is
    // recoverable: reject it and keep the connection.
    ++stats_.rejected_uploads;
    SendError(peer, status);
    return true;
  }
  slot.user = static_cast<std::uint32_t>(source.value());
  slot.loss = 0.0;
  slot.pair_count = 0;
  participants_[pending_] = peer;
  ++pending_;
  ++stats_.uploads_received;
  stats_.upload_bytes += payload.size();
  if (pending_ == options_.round_size) RunRound();
  return true;
}

void FederationService::RunRound() {
  // The service keeps no virtual clock, so the returned backoff is unused.
  server_round_.Run(
      *transport_,
      std::span<const ClientUpdate>(updates_.data(), options_.round_size),
      options_.aggregator, options_.retry, round_, options_.learning_rate,
      *model_, /*pool=*/nullptr, stats_);
  ++stats_.rounds_completed;

  // Ack every contributed upload on the connection that sent it. A sender
  // that left mid-round is skipped, and so is a new peer the kernel handed
  // the same fd number (its slot carries a newer generation).
  scratch_.Clear();
  scratch_.WriteU64(round_);
  ++round_;
  const std::array<std::string_view, 1> pieces = {
      std::string_view(scratch_.buffer())};
  for (PeerId& participant : participants_) {
    loop_.Send(participant, FrameType::kRoundAck, pieces);
    participant = PeerId{};
  }
  pending_ = 0;
  if (options_.max_rounds != 0 &&
      stats_.rounds_completed >= options_.max_rounds) {
    loop_.RequestStop();
  }
}

void FederationService::SendError(PeerId peer, const Status& status) {
  scratch_.Clear();
  EncodeErrorPayload(status, scratch_);
  const std::array<std::string_view, 1> pieces = {
      std::string_view(scratch_.buffer())};
  loop_.Send(peer, FrameType::kError, pieces);
}

}  // namespace fedrec
