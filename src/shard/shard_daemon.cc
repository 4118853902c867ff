#include "shard/shard_daemon.h"

#include <array>
#include <utility>

namespace fedrec {

namespace {

FrameServer::Options LoopOptions(const ShardDaemon::Options& options,
                                 const std::string& label) {
  FrameServer::Options loop;
  loop.host = options.host;
  loop.port = options.port;
  loop.liveness = options.liveness;
  loop.max_frame_payload = options.max_frame_payload;
  loop.max_frames_per_drain = options.max_frames_per_drain;
  loop.serve_buffered_on_stop = true;
  loop.metric_prefix = "fedrec_shardd_";
  loop.metric_label = label;
  loop.rtt_label = label;
  return loop;
}

/// The shard label keeps co-located daemons distinguishable.
std::string ShardLabel(std::uint64_t shard_index) {
  std::string label = "shard=\"";
  label += std::to_string(shard_index);
  label += '"';
  return label;
}

}  // namespace

ShardDaemon::ShardDaemon(Options options)
    : options_(std::move(options)),
      loop_(LoopOptions(options_, ShardLabel(options_.shard_index)), this,
            &stats_) {
  // One-time metric registration (allocates label strings; never on the
  // serving path).
  const std::string label = ShardLabel(options_.shard_index);
  obs::Registry& registry = obs::Registry::Global();
  metrics_.rounds_served =
      registry.GetGauge("fedrec_shardd_rounds_served", label);
  metrics_.hellos_accepted =
      registry.GetGauge("fedrec_shardd_hellos_accepted", label);
  metrics_.hellos_rejected =
      registry.GetGauge("fedrec_shardd_hellos_rejected", label);
  metrics_.recoverable_errors =
      registry.GetGauge("fedrec_shardd_recoverable_errors", label);
}

bool ShardDaemon::HandleFrame(PeerId peer, const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return HandleHello(peer, frame.payload);
    case FrameType::kShardRound:
      if (!Helloed(peer)) return false;
      return HandleRound(peer, frame.payload);
    default:
      return false;  // a shardd receives only the types above
  }
}

void ShardDaemon::PublishStats() {
  metrics_.rounds_served->Set(
      static_cast<std::int64_t>(stats_.rounds_served));
  metrics_.hellos_accepted->Set(
      static_cast<std::int64_t>(stats_.hellos_accepted));
  metrics_.hellos_rejected->Set(
      static_cast<std::int64_t>(stats_.hellos_rejected));
  metrics_.recoverable_errors->Set(
      static_cast<std::int64_t>(stats_.recoverable_errors));
}

bool ShardDaemon::HandleHello(PeerId peer, std::string_view payload) {
  ShardHello hello;
  Status status = DecodeHello(payload, hello);
  if (status.ok()) status = CheckHello(hello);
  if (!status.ok()) {
    ++stats_.hellos_rejected;
    SendError(peer, status);  // best-effort delivery of the rejection
    return false;
  }
  const std::size_t slot = static_cast<std::size_t>(peer.fd);
  if (slot >= helloed_.size()) helloed_.resize(slot + 1, 0);
  helloed_[slot] = peer.generation;
  ++stats_.hellos_accepted;
  loop_.Send(peer, FrameType::kHelloAck, {});
  return true;
}

Status ShardDaemon::CheckHello(const ShardHello& hello) {
  if (hello.protocol_version != kShardProtocolVersion) {
    return Status::FailedPrecondition("shard protocol version mismatch");
  }
  if (hello.shard_index != options_.shard_index) {
    return Status::FailedPrecondition("hello targets a different shard index");
  }
  if (hello.num_shards == 0 || hello.shard_index >= hello.num_shards ||
      hello.num_items == 0 || hello.dim == 0) {
    return Status::InvalidArgument("malformed hello geometry");
  }
  if (hello.policy > static_cast<std::uint32_t>(ShardPolicy::kHashed)) {
    return Status::InvalidArgument("unknown shard policy");
  }
  if (!adopted_) {
    // First coordinator of the run: adopt its geometry and build the shard's
    // state. Later hellos (reconnects, or a coordinator restored from FRCK)
    // must match exactly — fingerprint included.
    geometry_ = hello;
    server_ = std::make_unique<ShardServer>(
        ShardPlan(hello.num_items, hello.num_shards,
                  static_cast<ShardPolicy>(hello.policy)),
        hello.dim);
    adopted_ = true;
    return Status::OK();
  }
  if (hello.run_fingerprint != geometry_.run_fingerprint ||
      hello.num_items != geometry_.num_items || hello.dim != geometry_.dim ||
      hello.num_shards != geometry_.num_shards ||
      hello.policy != geometry_.policy) {
    return Status::FailedPrecondition(
        "hello does not match the adopted run (fingerprint or geometry)");
  }
  return Status::OK();
}

// fedrec:hot — steady-state serving: the delivery is decoded in place from
// the connection's reassembly buffer, aggregated, and the retained FRWD
// reply staged for send; no copies of the inbox bytes, no heap growth.
bool ShardDaemon::HandleRound(PeerId peer, std::string_view payload) {
  const std::size_t shard = static_cast<std::size_t>(options_.shard_index);
  ShardRoundHeader header;
  std::string_view inbox_wire;
  Status status = DecodeRoundHeader(payload, header, inbox_wire);
  AggregatorOptions options;
  if (status.ok()) {
    Result<AggregatorOptions> parsed = RoundHeaderOptions(header);
    if (parsed.ok()) {
      options = parsed.value();
    } else {
      status = parsed.status();
    }
  }
  if (status.ok()) {
    status = server_->AggregateShardRoundWire(
        shard, inbox_wire, header.message_count, options, header.round_size,
        header.krum_source);
  }
  if (!status.ok()) {
    // Recoverable: report the failure and keep serving — the coordinator's
    // retry path resends, and its retries exhaust into a local fallback.
    ++stats_.recoverable_errors;
    SendError(peer, status);
    return true;
  }
  ++stats_.rounds_served;
  const std::array<std::string_view, 1> pieces = {
      std::string_view(server_->delta_wire(shard))};
  loop_.Send(peer, FrameType::kShardDelta, pieces);
  return true;
}

void ShardDaemon::SendError(PeerId peer, const Status& status) {
  scratch_.Clear();
  EncodeErrorPayload(status, scratch_);
  const std::array<std::string_view, 1> pieces = {
      std::string_view(scratch_.buffer())};
  loop_.Send(peer, FrameType::kError, pieces);
}

}  // namespace fedrec
