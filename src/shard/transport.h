#ifndef FEDREC_SHARD_TRANSPORT_H_
#define FEDREC_SHARD_TRANSPORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "fed/client.h"
#include "fed/config.h"
#include "model/mf_model.h"
#include "obs/metrics.h"
#include "shard/shard_server.h"

/// \file
/// The transport seam of the sharded round loop: how a shard's routed FRWU
/// inbox reaches its compute and how the FRWD reply comes back. The round
/// engine (and the federation coordinator) talk only to ShardTransport, so
/// the same loop runs unchanged over in-process buffer handoffs or TCP
/// connections to fedrec_shardd processes — the deployment shape is a
/// constructor argument, not a code path.
///
/// Failure taxonomy (what the retry/fallback protocol keys on):
///   kIOError     the shard is out — refused/dead connection, timeout, or an
///                injected outage. A retry reconnects and resends.
///   kCorruption  the delivery or reply was damaged. A retry resends
///                pristinely re-routed bytes.
/// Both are environmental for a fallible transport; for the in-process
/// transport without an armed fault plan, any failure is a programming error
/// and the delivery loop fails fast instead of retrying.
///
/// ServerRound is the one server-side round over this seam. The sharded
/// round engine and the socket federation service both call it, so every
/// transport — infallible or not — runs the same route, Krum pick, delivery
/// loop, merge and apply, and folds its failures into one FaultStats ledger.

namespace fedrec {

/// How shard deliveries travel. Implementations own the coordinator-side
/// ShardServer (routing, receive slots, merge scratch, fallback compute).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Coordinator-side server state. Routing, merge and the local-fallback
  /// math always run here, whatever carries the bytes.
  virtual ShardServer& server() = 0;
  const ShardServer& server() const {
    return const_cast<ShardTransport*>(this)->server();
  }

  /// True when ExecuteShardRound can fail for environmental reasons. The
  /// round loop runs the retry/fallback protocol iff the transport is
  /// fallible; otherwise it fails fast on any error.
  virtual bool fallible() const = 0;

  /// Delivers shard `s`'s routed inbox to its compute and leaves the decoded
  /// FRWD reply in the coordinator's receive slot `s`. `round` and `attempt`
  /// key deterministic fault draws (in-process) and let a socket transport
  /// reconnect per attempt. Safe to call concurrently for distinct shards.
  [[nodiscard]] virtual Status ExecuteShardRound(
      std::size_t s, const AggregatorOptions& options, std::size_t round_size,
      std::uint64_t krum_source, std::uint64_t round,
      std::uint64_t attempt) = 0;

  /// Transport name for logs and bench labels ("inproc", "socket").
  virtual const char* name() const = 0;
};

/// PR 5's historical deployment: the wire is a byte-buffer handoff inside
/// the coordinator process. With an armed fault plan the handoff injects the
/// deterministic outage/corruption draws of the fault protocol; without one
/// it is infallible.
class InProcessShardTransport final : public ShardTransport {
 public:
  InProcessShardTransport(const ShardPlan& plan, std::size_t dim)
      : server_(plan, dim) {}

  /// Arms (or disarms, with nullptr) deterministic fault injection. The plan
  /// is borrowed and must outlive the next ExecuteShardRound.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  ShardServer& server() override { return server_; }
  bool fallible() const override { return fault_plan_ != nullptr; }
  const char* name() const override { return "inproc"; }

  [[nodiscard]] Status ExecuteShardRound(std::size_t s,
                                         const AggregatorOptions& options,
                                         std::size_t round_size,
                                         std::uint64_t krum_source,
                                         std::uint64_t round,
                                         std::uint64_t attempt) override;

 private:
  ShardServer server_;
  const FaultPlan* fault_plan_ = nullptr;
};

/// Bounded-retry parameters (FedConfig::max_shard_retries /
/// shard_retry_backoff_ticks).
struct ShardRetryPolicy {
  std::uint64_t max_retries = 2;
  std::uint64_t backoff_ticks = 2;
};

/// One shard's delivery ledger (ParallelFor-private; callers fold serially
/// so counters and the virtual clock stay deterministic for any pool).
struct ShardRoundOutcome {
  std::uint32_t corrupt = 0;
  std::uint32_t outages = 0;
  std::uint32_t retries = 0;
  bool fallback = false;
  std::uint64_t backoff_ticks = 0;
};

/// The delivery protocol for one shard: bounded retries (each a pristine
/// re-route + exponential backoff on the virtual clock), then the
/// coordinator-local fallback — aggregate the shard's row range from the
/// pristine uploads, no wire. On return the shard's receive slot is always
/// decoded, so the round can merge whatever happened. An infallible transport
/// aborts on its first failed attempt instead: its corruption is a bug.
ShardRoundOutcome DeliverShardWithRetries(
    ShardTransport& transport, std::span<const ClientUpdate> updates,
    std::size_t s, const AggregatorOptions& options, std::size_t round_size,
    std::uint64_t krum_source, std::uint64_t round,
    const ShardRetryPolicy& policy);

/// One server round over a ShardTransport: route the uploads into per-shard
/// FRWU inboxes, pick the Krum winner once, deliver every shard through
/// DeliverShardWithRetries (concurrently on `pool`), fold the per-shard
/// outcomes into the caller's ledger, merge the decoded FRWD replies and
/// apply the merged delta to the model. Owns the merged delta, the outcome
/// scratch and the route/shard_aggregate/merge/apply stage histograms, all
/// reused round over round.
class ServerRound {
 public:
  ServerRound();

  /// Runs one round of `updates` (`round` keys the fault draws). Returns the
  /// slowest shard's retry backoff in virtual ticks: shards retry
  /// concurrently, so the round pays the maximum, not the sum.
  std::uint64_t Run(ShardTransport& transport,
                    std::span<const ClientUpdate> updates,
                    const AggregatorOptions& aggregator,
                    const ShardRetryPolicy& policy, std::uint64_t round,
                    float learning_rate, MfModel& model, ThreadPool* pool,
                    FaultStats& ledger);

  /// The merged delta the last Run applied.
  const SparseRoundDelta& merged() const { return merged_; }

 private:
  SparseRoundDelta merged_;
  std::vector<ShardRoundOutcome> outcomes_;
  // fedrec_stage_us{stage=...}: the same series the single-server engine
  // records, so every driver shares one per-stage vocabulary.
  obs::Histogram* route_ = nullptr;
  obs::Histogram* shard_aggregate_ = nullptr;
  obs::Histogram* merge_ = nullptr;
  obs::Histogram* apply_ = nullptr;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_TRANSPORT_H_
