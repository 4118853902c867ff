#ifndef FEDREC_FED_CLIENT_H_
#define FEDREC_FED_CLIENT_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "fed/config.h"
#include "model/mf_model.h"

/// \file
/// A benign user client (Section III-B): owns its private interaction set
/// V+_i and its private feature vector u_i; when selected it derives BPR
/// gradients at the server's current V, clips and noises the item gradients,
/// uploads them, and updates u_i locally (Eq. 5-6).

namespace fedrec {

/// One client's upload for a round: the gradient rows of V it touched.
/// This is the unit the server aggregates and the attacker forges.
struct ClientUpdate {
  std::uint32_t user = 0;
  SparseRowMatrix item_gradients;
  double loss = 0.0;          ///< local BPR loss (0 for attack uploads)
  std::size_t pair_count = 0; ///< BPR pairs behind `loss`
};

/// Benign federated client.
class Client {
 public:
  /// `positives` is V+_i (sorted); `rng` seeds the client's private stream.
  Client(std::uint32_t user_id, std::vector<std::uint32_t> positives,
         const MfHyperParams& params, Rng rng);

  std::uint32_t user_id() const { return user_id_; }
  const std::vector<std::uint32_t>& positives() const { return positives_; }
  const std::vector<float>& user_vector() const { return user_vector_; }
  std::vector<float>& mutable_user_vector() { return user_vector_; }

  /// Resamples the negative set V-_i' (same size as V+_i). Called once per
  /// epoch, mirroring the paper's per-client negative subsampling.
  void ResampleNegatives(std::size_t num_items, std::size_t negatives_per_positive);

  /// Current negative set V-_i' (see ResampleNegatives). Read by the
  /// checkpoint capture (shard/checkpoint.h), which must carry the open
  /// epoch's set verbatim.
  const std::vector<std::uint32_t>& negatives() const { return negatives_; }

  /// Executes one local training step against the shared item matrix:
  /// computes nabla V_i and nabla u_i, clips rows of nabla V_i to C, adds
  /// N(0, (mu C)^2) noise, applies u_i <- u_i - eta * nabla u_i, and writes
  /// the upload into `update`, recycling its SparseRowMatrix buffers and the
  /// client's internal pair/gradient scratch: in steady state (same-shaped
  /// rounds into the same slot) the call performs zero heap allocations.
  /// The caller (server/simulation) applies Eq. (7).
  void TrainRoundInto(const Matrix& item_factors, const FedConfig& config,
                      ClientUpdate& update);

  /// Convenience wrapper over TrainRoundInto returning a fresh upload.
  /// Bit-identical to TrainRoundInto under the same RNG stream; kept for
  /// tests and stand-alone use (the round engine recycles slots instead).
  ClientUpdate TrainRound(const Matrix& item_factors, const FedConfig& config);

  // -- Checkpoint support (shard/checkpoint.h) ------------------------------
  /// The client's private rng cursor; restoring it (with the negatives and
  /// user vector) replays the uninterrupted stream bit for bit.
  RngSnapshot rng_state() const { return rng_.Snapshot(); }
  void RestoreRng(const RngSnapshot& snapshot) { rng_.Restore(snapshot); }
  /// Restores a checkpointed negative set verbatim, bypassing resampling
  /// (which would consume rng draws the checkpointed cursor already spent).
  void RestoreNegatives(std::vector<std::uint32_t> negatives) {
    negatives_ = std::move(negatives);
  }

 private:
  std::uint32_t user_id_;
  std::vector<std::uint32_t> positives_;
  std::vector<std::uint32_t> negatives_;
  std::vector<float> user_vector_;
  Rng rng_;
  // Round-to-round scratch (capacity retained; never read across rounds).
  std::vector<std::uint32_t> paired_scratch_;  ///< repeated-positives pairing
  std::vector<float> user_gradient_scratch_;   ///< nabla u_i
};

}  // namespace fedrec

#endif  // FEDREC_FED_CLIENT_H_
