#include "shard/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "shard/wire.h"

namespace fedrec {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4B435246;  // "FRCK"
constexpr std::uint32_t kCheckpointVersion = 2;

// Conservative minimum encoded sizes, used to bound counts against the
// remaining buffer before any allocation: a hostile count field would
// otherwise drive a giant resize before its reads could fail.
constexpr std::size_t kMinRngBytes = 5 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
constexpr std::size_t kMinClientBytes = 2 * sizeof(std::uint64_t) + kMinRngBytes;

std::uint64_t Mix(std::uint64_t hash, std::uint64_t value) {
  std::uint64_t state = hash ^ value;
  return SplitMix64(state);
}

std::uint64_t MixF32(std::uint64_t hash, float value) {
  return Mix(hash, std::bit_cast<std::uint32_t>(value));
}

std::uint64_t MixF64(std::uint64_t hash, double value) {
  return Mix(hash, std::bit_cast<std::uint64_t>(value));
}

void WriteF64(double value, BinaryWriter& writer) {
  writer.WriteU64(std::bit_cast<std::uint64_t>(value));
}

Status ReadU64Into(BinaryReader& reader, std::uint64_t& out) {
  Result<std::uint64_t> value = reader.ReadU64();
  if (!value.ok()) return value.status();
  out = value.value();
  return Status::OK();
}

Status ReadSizeInto(BinaryReader& reader, std::size_t& out) {
  std::uint64_t value = 0;
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, value));
  if (value > std::numeric_limits<std::size_t>::max()) {
    return Status::Corruption("FRCK checkpoint: count exceeds size_t");
  }
  out = static_cast<std::size_t>(value);
  return Status::OK();
}

Status ReadF64Into(BinaryReader& reader, double& out) {
  std::uint64_t bits = 0;
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, bits));
  out = std::bit_cast<double>(bits);
  return Status::OK();
}

Status ReadBoolInto(BinaryReader& reader, bool& out) {
  Result<std::uint32_t> value = reader.ReadU32();
  if (!value.ok()) return value.status();
  if (value.value() > 1) {
    return Status::Corruption("FRCK checkpoint: flag is neither 0 nor 1");
  }
  out = value.value() != 0;
  return Status::OK();
}

/// Rejects `count` before allocation when even minimum-sized elements could
/// not fit in the remaining buffer.
Status BoundCount(const BinaryReader& reader, std::uint64_t count,
                  std::size_t min_bytes, const char* what) {
  if (count > reader.remaining() / min_bytes) {
    return Status::Corruption(std::string(what) + ": absurd element count");
  }
  return Status::OK();
}

void WriteU32Vector(const std::vector<std::uint32_t>& values,
                    BinaryWriter& writer) {
  writer.WriteU64(values.size());
  for (std::uint32_t value : values) writer.WriteU32(value);
}

// fedrec:hot — restore path (see DecodeCheckpoint).
Status ReadU32Vector(BinaryReader& reader, std::vector<std::uint32_t>& out,
                     const char* what) {
  std::uint64_t count = 0;
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, count));
  FEDREC_RETURN_NOT_OK(BoundCount(reader, count, sizeof(std::uint32_t), what));
  out.resize(static_cast<std::size_t>(count));  // fedrec:alloc-ok — restored buffer
  for (std::uint32_t& value : out) {
    Result<std::uint32_t> read = reader.ReadU32();
    if (!read.ok()) return read.status();
    value = read.value();
  }
  return Status::OK();
}

void WriteF32Vector(const std::vector<float>& values, BinaryWriter& writer) {
  writer.WriteU64(values.size());
  writer.WriteF32Array(values);
}

// fedrec:hot — restore path (see DecodeCheckpoint).
Status ReadF32Vector(BinaryReader& reader, std::vector<float>& out,
                     const char* what) {
  std::uint64_t count = 0;
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, count));
  FEDREC_RETURN_NOT_OK(BoundCount(reader, count, sizeof(float), what));
  out.resize(static_cast<std::size_t>(count));  // fedrec:alloc-ok — restored buffer
  return reader.ReadF32Array(out);
}

void WriteRngSnapshot(const RngSnapshot& rng, BinaryWriter& writer) {
  for (std::uint64_t word : rng.state) writer.WriteU64(word);
  WriteF64(rng.cached_gaussian, writer);
  writer.WriteU32(rng.has_cached_gaussian ? 1u : 0u);
}

Status ReadRngSnapshot(BinaryReader& reader, RngSnapshot& out) {
  for (std::uint64_t& word : out.state) {
    FEDREC_RETURN_NOT_OK(ReadU64Into(reader, word));
  }
  FEDREC_RETURN_NOT_OK(ReadF64Into(reader, out.cached_gaussian));
  return ReadBoolInto(reader, out.has_cached_gaussian);
}

void WriteFaultStats(const FaultStats& stats, BinaryWriter& writer) {
  writer.WriteU64(stats.dropped_uploads);
  writer.WriteU64(stats.straggler_uploads);
  writer.WriteU64(stats.corrupt_messages);
  writer.WriteU64(stats.shard_outages);
  writer.WriteU64(stats.shard_retries);
  writer.WriteU64(stats.fallback_shards);
  writer.WriteU64(stats.skipped_rounds);
  writer.WriteU64(stats.virtual_ticks);
}

Status ReadFaultStats(BinaryReader& reader, FaultStats& out) {
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.dropped_uploads));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.straggler_uploads));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.corrupt_messages));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.shard_outages));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.shard_retries));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.fallback_shards));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.skipped_rounds));
  return ReadU64Into(reader, out.virtual_ticks);
}

}  // namespace

std::uint64_t CheckpointFingerprint(const FedConfig& config,
                                    std::size_t num_items,
                                    std::size_t num_benign,
                                    std::size_t num_malicious) {
  // Order-sensitive SplitMix64 chain over every field that shapes the
  // trajectory; floats enter by bit pattern so -0.0 vs 0.0 etc. stay
  // distinguishable exactly when their streams would differ.
  std::uint64_t h = 0x4652434B00000001ULL;  // "FRCK" salt
  h = Mix(h, config.seed);
  h = Mix(h, config.model.dim);
  h = MixF32(h, config.model.learning_rate);
  h = MixF32(h, config.model.l2_reg);
  h = MixF32(h, config.model.init_std);
  h = Mix(h, config.clients_per_round);
  h = Mix(h, static_cast<std::uint64_t>(config.participation));
  h = Mix(h, config.rounds_per_epoch);
  h = Mix(h, config.epochs);
  h = MixF32(h, config.clip_norm);
  h = MixF32(h, config.noise_scale);
  h = Mix(h, config.negatives_per_positive);
  h = Mix(h, static_cast<std::uint64_t>(config.aggregator.kind));
  h = MixF64(h, config.aggregator.trim_fraction);
  h = MixF64(h, config.aggregator.norm_bound);
  h = Mix(h, config.aggregator.krum_honest);
  h = Mix(h, config.min_round_quorum);
  h = Mix(h, config.max_shard_retries);
  h = Mix(h, config.shard_retry_backoff_ticks);
  h = MixF64(h, config.faults.dropout_rate);
  h = MixF64(h, config.faults.straggler_rate);
  h = Mix(h, config.faults.straggler_max_ticks);
  h = Mix(h, config.faults.round_deadline_ticks);
  h = MixF64(h, config.faults.upload_corrupt_rate);
  h = MixF64(h, config.faults.delta_corrupt_rate);
  h = MixF64(h, config.faults.shard_outage_rate);
  h = Mix(h, config.faults.fault_seed);
  h = Mix(h, num_items);
  h = Mix(h, num_benign);
  h = Mix(h, num_malicious);
  return h;
}

// fedrec:hot — checkpoint encode streams the whole training state into the
// caller's retained buffer.
void EncodeCheckpoint(const TrainingCheckpoint& checkpoint,
                      BinaryWriter& writer) {
  writer.WriteU32(kCheckpointMagic);
  writer.WriteU32(kCheckpointVersion);
  // Wire-v2 convention: the trailing CRC covers every byte after the version
  // field, so any flip or truncation anywhere in the body fails validation.
  const std::size_t crc_begin = writer.buffer().size();

  writer.WriteU64(checkpoint.config_fingerprint);
  writer.WriteU64(checkpoint.epoch);
  WriteF64(checkpoint.epoch_loss, writer);
  writer.WriteU32(checkpoint.epoch_open ? 1u : 0u);

  const RoundEngineSnapshot& engine = checkpoint.engine;
  writer.WriteU64(engine.epoch);
  writer.WriteU64(engine.round_in_epoch);
  writer.WriteU64(engine.rounds_this_epoch);
  writer.WriteU64(engine.global_round);
  WriteU32Vector(engine.order, writer);
  WriteFaultStats(engine.fault_stats, writer);
  writer.WriteU64(engine.clock_ticks);

  WriteRngSnapshot(checkpoint.server_rng, writer);

  writer.WriteU64(checkpoint.item_factors.rows());
  writer.WriteU64(checkpoint.item_factors.cols());
  writer.WriteF32Array(checkpoint.item_factors.Data());

  writer.WriteU64(checkpoint.clients.size());
  for (const ClientCheckpoint& client : checkpoint.clients) {
    WriteF32Vector(client.user_vector, writer);
    WriteU32Vector(client.negatives, writer);
    WriteRngSnapshot(client.rng, writer);
  }

  writer.WriteU32(Crc32(0, writer.buffer().data() + crc_begin,
                        writer.buffer().size() - crc_begin));
}

// fedrec:hot — restore path; the checksum over the whole body is verified
// before a single field is trusted. The output buffers are freshly restored
// state, so their growth is inherent (tagged per line).
Status DecodeCheckpoint(BinaryReader& reader, TrainingCheckpoint& out) {
  Result<std::uint32_t> magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kCheckpointMagic) {
    return Status::Corruption("not a FRCK checkpoint");
  }
  Result<std::uint32_t> version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kCheckpointVersion) {
    return Status::Corruption("unsupported FRCK version " +
                              std::to_string(version.value()));
  }

  // The checkpoint is the remainder of the buffer and the CRC is its last
  // four bytes: validate everything in between up front, so corruption at
  // any offset fails here instead of mid-restore.
  if (reader.remaining() < sizeof(std::uint32_t)) {
    return Status::Corruption("FRCK checkpoint lost its checksum trailer");
  }
  const std::size_t covered = reader.remaining() - sizeof(std::uint32_t);
  Result<std::string_view> body = reader.PeekBytes(reader.remaining());
  if (!body.ok()) return body.status();
  const std::uint32_t computed = Crc32(0, body.value().data(), covered);
  std::uint32_t stored = 0;
  std::memcpy(&stored, body.value().data() + covered, sizeof(stored));
  if (computed != stored) {
    return Status::Corruption("FRCK checkpoint checksum mismatch");
  }

  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, out.config_fingerprint));
  FEDREC_RETURN_NOT_OK(ReadSizeInto(reader, out.epoch));
  FEDREC_RETURN_NOT_OK(ReadF64Into(reader, out.epoch_loss));
  FEDREC_RETURN_NOT_OK(ReadBoolInto(reader, out.epoch_open));

  RoundEngineSnapshot& engine = out.engine;
  FEDREC_RETURN_NOT_OK(ReadSizeInto(reader, engine.epoch));
  FEDREC_RETURN_NOT_OK(ReadSizeInto(reader, engine.round_in_epoch));
  FEDREC_RETURN_NOT_OK(ReadSizeInto(reader, engine.rounds_this_epoch));
  FEDREC_RETURN_NOT_OK(ReadSizeInto(reader, engine.global_round));
  FEDREC_RETURN_NOT_OK(
      ReadU32Vector(reader, engine.order, "FRCK participation order"));
  FEDREC_RETURN_NOT_OK(ReadFaultStats(reader, engine.fault_stats));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, engine.clock_ticks));

  FEDREC_RETURN_NOT_OK(ReadRngSnapshot(reader, out.server_rng));

  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, rows));
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, cols));
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  if (cols > 0 && rows > kMax / cols) {
    return Status::Corruption("FRCK checkpoint: absurd model shape");
  }
  if (rows * cols > reader.remaining() / sizeof(float)) {
    return Status::Corruption("FRCK checkpoint: model exceeds the buffer");
  }
  out.item_factors = Matrix(static_cast<std::size_t>(rows),
                            static_cast<std::size_t>(cols));
  FEDREC_RETURN_NOT_OK(reader.ReadF32Array(out.item_factors.Data()));

  std::uint64_t client_count = 0;
  FEDREC_RETURN_NOT_OK(ReadU64Into(reader, client_count));
  FEDREC_RETURN_NOT_OK(
      BoundCount(reader, client_count, kMinClientBytes, "FRCK clients"));
  out.clients.resize(  // fedrec:alloc-ok — restored client slots
      static_cast<std::size_t>(client_count));
  for (ClientCheckpoint& client : out.clients) {
    FEDREC_RETURN_NOT_OK(
        ReadF32Vector(reader, client.user_vector, "FRCK user vector"));
    FEDREC_RETURN_NOT_OK(
        ReadU32Vector(reader, client.negatives, "FRCK negative set"));
    FEDREC_RETURN_NOT_OK(ReadRngSnapshot(reader, client.rng));
  }

  // Every field parsed must land exactly on the CRC trailer: leftovers mean
  // the counts and the fields disagree even though the checksum passed (only
  // possible for a deliberately crafted file, but cheap to reject).
  if (reader.remaining() != sizeof(std::uint32_t)) {
    return Status::Corruption("FRCK checkpoint: body/trailer misalignment");
  }
  return reader.ReadU32().ok()
             ? Status::OK()
             : Status::Corruption("FRCK checkpoint lost its checksum trailer");
}

Status SaveCheckpoint(const TrainingCheckpoint& checkpoint,
                      const std::string& path) {
  BinaryWriter writer;
  EncodeCheckpoint(checkpoint, writer);
  return writer.Flush(path);
}

Status SaveCheckpointAtomic(const TrainingCheckpoint& checkpoint,
                            const std::string& path) {
  const std::string staging = path + ".tmp";
  FEDREC_RETURN_NOT_OK(SaveCheckpoint(checkpoint, staging));
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    (void)std::remove(staging.c_str());
    return Status::IOError("rename of staged checkpoint failed: " + staging);
  }
  return Status::OK();
}

Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path) {
  Result<BinaryReader> reader = BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  TrainingCheckpoint checkpoint;
  FEDREC_RETURN_NOT_OK(DecodeCheckpoint(reader.value(), checkpoint));
  return checkpoint;
}

TrainingCheckpoint CaptureCheckpoint(const Simulation& simulation) {
  TrainingCheckpoint checkpoint;
  checkpoint.config_fingerprint = CheckpointFingerprint(
      simulation.config(), simulation.model().num_items(),
      simulation.num_benign(), simulation.num_malicious());
  checkpoint.epoch = simulation.current_epoch();
  checkpoint.epoch_loss = simulation.epoch_loss();
  checkpoint.epoch_open = simulation.epoch_open();
  checkpoint.engine = simulation.engine().Snapshot();
  checkpoint.server_rng = simulation.server_rng().Snapshot();
  checkpoint.item_factors = simulation.model().item_factors();
  checkpoint.clients.reserve(simulation.benign_clients().size());
  for (const Client& client : simulation.benign_clients()) {
    checkpoint.clients.push_back(ClientCheckpoint{
        client.user_vector(), client.negatives(), client.rng_state()});
  }
  return checkpoint;
}

Status RestoreCheckpoint(const TrainingCheckpoint& checkpoint,
                         Simulation& simulation) {
  const std::uint64_t expected = CheckpointFingerprint(
      simulation.config(), simulation.model().num_items(),
      simulation.num_benign(), simulation.num_malicious());
  if (checkpoint.config_fingerprint != expected) {
    return Status::InvalidArgument(
        "checkpoint belongs to a different config/dataset (fingerprint "
        "mismatch) — resuming it here would silently train a foreign run");
  }
  if (checkpoint.clients.size() != simulation.num_benign()) {
    return Status::InvalidArgument("checkpoint client count mismatch");
  }
  if (checkpoint.item_factors.rows() != simulation.model().num_items() ||
      checkpoint.item_factors.cols() != simulation.model().dim()) {
    return Status::InvalidArgument("checkpoint model shape mismatch");
  }
  for (const ClientCheckpoint& client : checkpoint.clients) {
    if (client.user_vector.size() != simulation.model().dim()) {
      return Status::InvalidArgument("checkpoint user-vector dim mismatch");
    }
  }

  simulation.model().item_factors() = checkpoint.item_factors;
  simulation.server_rng().Restore(checkpoint.server_rng);
  std::vector<Client>& clients = simulation.mutable_benign_clients();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].mutable_user_vector() = checkpoint.clients[i].user_vector;
    clients[i].RestoreNegatives(checkpoint.clients[i].negatives);
    clients[i].RestoreRng(checkpoint.clients[i].rng);
  }
  simulation.engine().Restore(checkpoint.engine);
  simulation.RestoreEpochProgress(checkpoint.epoch, checkpoint.epoch_loss,
                                  checkpoint.epoch_open);
  return Status::OK();
}

}  // namespace fedrec
