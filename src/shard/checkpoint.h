#ifndef FEDREC_SHARD_CHECKPOINT_H_
#define FEDREC_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/serialize.h"
#include "fed/config.h"
#include "fed/round_engine.h"
#include "fed/simulation.h"

/// \file
/// Round checkpoint / recovery for the federation layer ("FRCK" format,
/// version 2).
///
/// A checkpoint captures everything a mid-training Simulation needs to
/// continue bit-identically to the uninterrupted run: the shared item matrix,
/// every rng cursor (server selection stream, each client's private stream),
/// each client's local state (feature vector, epoch negative set), the
/// engine's round counters and participation order, and the fault counters
/// plus virtual clock. Rounds run strictly one after another, so no part of
/// the next round (a pre-drawn selection, trained uploads) exists between two
/// rounds and none is stored. Killing a run after any completed round,
/// restoring the checkpoint into a freshly constructed Simulation over the
/// same dataset and config, and finishing the schedule produces the same
/// bytes as never having stopped (checkpoint_test enforces this in shuffled
/// and uniform participation, with a pool and under faults).
///
/// The codec reuses BinaryWriter/BinaryReader and follows the wire-v2
/// checksum convention (shard/wire.h): a trailing CRC32 covers every byte
/// after the version field, so ANY flipped bit or truncation fails loudly as
/// Status::Corruption before a single field is trusted. A config fingerprint
/// stored up front rejects restoring into a simulation built from different
/// data or hyper-parameters — silently resuming a foreign run would be a
/// correctness bug dressed as a recovery.

namespace fedrec {

/// One benign client's private state.
struct ClientCheckpoint {
  std::vector<float> user_vector;          ///< u_i
  std::vector<std::uint32_t> negatives;    ///< V-_i' of the open epoch
  RngSnapshot rng;                         ///< private stream cursor
};

/// Full mid-training state of a Simulation.
struct TrainingCheckpoint {
  /// Fingerprint of the (config, dataset shape) pair the checkpoint belongs
  /// to; RestoreCheckpoint refuses a mismatch (see CheckpointFingerprint).
  std::uint64_t config_fingerprint = 0;
  // -- Epoch progress (Simulation) ------------------------------------------
  std::size_t epoch = 0;       ///< open epoch, or next one when closed
  double epoch_loss = 0.0;     ///< loss of the open epoch's completed rounds
  bool epoch_open = false;     ///< BeginEpoch ran, last round hasn't finished
  // -- Engine progress -------------------------------------------------------
  RoundEngineSnapshot engine;
  // -- Streams and parameters ------------------------------------------------
  RngSnapshot server_rng;      ///< selection stream cursor
  Matrix item_factors;         ///< shared V
  std::vector<ClientCheckpoint> clients;  ///< one per benign client, in order
};

/// Order-sensitive hash of every config field and dataset dimension that
/// shapes the training trajectory. Two runs with equal fingerprints replay
/// the same schedule; a restore across different fingerprints is rejected.
std::uint64_t CheckpointFingerprint(const FedConfig& config,
                                    std::size_t num_items,
                                    std::size_t num_benign,
                                    std::size_t num_malicious);

/// Appends the checkpoint to `writer` ("FRCK" magic, version, body, trailing
/// CRC32 over every byte after the version field).
void EncodeCheckpoint(const TrainingCheckpoint& checkpoint,
                      BinaryWriter& writer);

/// Decodes one checkpoint, validating magic, version and checksum before any
/// field is trusted. Fails with Status::Corruption on a foreign magic,
/// unknown version, truncation at any length, or any flipped bit — never
/// crashes, never silently accepts (checkpoint_test sweeps exhaustively).
[[nodiscard]] Status DecodeCheckpoint(BinaryReader& reader,
                                      TrainingCheckpoint& out);

/// Encodes the checkpoint and writes it to `path`.
[[nodiscard]] Status SaveCheckpoint(const TrainingCheckpoint& checkpoint,
                                    const std::string& path);

/// SaveCheckpoint through a `path + ".tmp"` staging file renamed into place,
/// so a crash mid-write (the exact event checkpoints exist for) can never
/// leave a torn file at `path` — the previous checkpoint survives intact.
/// rename(2) on one filesystem is atomic; the CRC32 still guards the rest.
[[nodiscard]] Status SaveCheckpointAtomic(const TrainingCheckpoint& checkpoint,
                                          const std::string& path);

/// Loads a checkpoint saved by SaveCheckpoint.
[[nodiscard]] Result<TrainingCheckpoint> LoadCheckpoint(
    const std::string& path);

/// Captures the simulation's current state. Legal between any two rounds —
/// Simulation::RunRounds leaves the simulation in exactly such a state.
TrainingCheckpoint CaptureCheckpoint(const Simulation& simulation);

/// Restores `checkpoint` into `simulation`, which must be freshly constructed
/// over the same dataset and config (same fingerprint — validated, along with
/// the client count and model shape, before anything is touched). After a
/// successful restore the simulation continues bit-identically to the run
/// that saved the checkpoint.
[[nodiscard]] Status RestoreCheckpoint(const TrainingCheckpoint& checkpoint,
                                       Simulation& simulation);

}  // namespace fedrec

#endif  // FEDREC_SHARD_CHECKPOINT_H_
