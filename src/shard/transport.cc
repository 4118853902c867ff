#include "shard/transport.h"

#include <algorithm>

#include "fed/aggregator.h"
#include "obs/trace.h"

namespace fedrec {

Status InProcessShardTransport::ExecuteShardRound(
    std::size_t s, const AggregatorOptions& options, std::size_t round_size,
    std::uint64_t krum_source, std::uint64_t round, std::uint64_t attempt) {
  if (fault_plan_ != nullptr) {
    if (fault_plan_->ShardOutage(round, s, attempt)) {
      return Status::IOError("injected shard outage");
    }
    ApplyWireFault(fault_plan_->UploadWireFault(round, s, attempt),
                   server_.inbox(s).mutable_buffer());
  }
  FEDREC_RETURN_NOT_OK(
      server_.AggregateShardRound(s, options, round_size, krum_source));
  if (fault_plan_ != nullptr) {
    ApplyWireFault(fault_plan_->DeltaWireFault(round, s, attempt),
                   server_.delta_writer(s).mutable_buffer());
  }
  return server_.DecodeShardDelta(s);
}

ShardRoundOutcome DeliverShardWithRetries(
    ShardTransport& transport, std::span<const ClientUpdate> updates,
    std::size_t s, const AggregatorOptions& options, std::size_t round_size,
    std::uint64_t krum_source, std::uint64_t round,
    const ShardRetryPolicy& policy) {
  ShardRoundOutcome outcome;
  ShardServer& server = transport.server();
  for (std::uint64_t attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      ++outcome.retries;
      outcome.backoff_ticks += policy.backoff_ticks << (attempt - 1);
      // A retry is a full resend: the coordinator re-routes the shard's rows
      // from the pristine uploads, then the wire rolls its dice again (fault
      // draws are keyed by attempt, so a transient failure clears; a socket
      // transport reconnects, so a restarted shardd rejoins here).
      server.RouteShard(updates, s);
    }
    const Status status = transport.ExecuteShardRound(
        s, options, round_size, krum_source, round, attempt);
    if (status.ok()) return outcome;
    // In-process wire corruption is a programming error, not an
    // environmental failure: fail fast instead of retrying.
    if (!transport.fallible()) status.CheckOK();
    if (status.code() == StatusCode::kIOError) {
      ++outcome.outages;
    } else {
      ++outcome.corrupt;
    }
  }
  // Retries exhausted: the coordinator aggregates this shard's row range
  // locally from the pristine uploads — no wire, so no faults; the math is
  // the shard's own (bit-identical by the routing invariant).
  outcome.fallback = true;
  server.RouteShard(updates, s);
  server.AggregateShardRound(s, options, round_size, krum_source).CheckOK();
  server.DecodeShardDelta(s).CheckOK();
  return outcome;
}

ServerRound::ServerRound() {
  obs::Registry& registry = obs::Registry::Global();
  route_ = registry.GetHistogram("fedrec_stage_us", "stage=\"route\"");
  shard_aggregate_ =
      registry.GetHistogram("fedrec_stage_us", "stage=\"shard_aggregate\"");
  merge_ = registry.GetHistogram("fedrec_stage_us", "stage=\"merge\"");
  apply_ = registry.GetHistogram("fedrec_stage_us", "stage=\"apply\"");
}

std::uint64_t ServerRound::Run(ShardTransport& transport,
                               std::span<const ClientUpdate> updates,
                               const AggregatorOptions& aggregator,
                               const ShardRetryPolicy& policy,
                               std::uint64_t round, float learning_rate,
                               MfModel& model, ThreadPool* pool,
                               FaultStats& ledger) {
  ShardServer& server = transport.server();
  {
    obs::ScopedSpan span("route", route_);
    server.RouteRound(updates, pool);
  }
  // Krum is a whole-round selection: the coordinator holds the full uploads
  // before routing anyway, so it picks the winner here and broadcasts the
  // winner's round sequence number to the shards.
  std::uint64_t krum_source = 0;
  if (aggregator.kind == AggregatorKind::kKrum && !updates.empty()) {
    krum_source = KrumSelect(updates, /*num_items=*/0, model.dim(),
                             aggregator.krum_honest);
  }
  std::uint64_t max_backoff = 0;
  {
    obs::ScopedSpan span("shard_aggregate", shard_aggregate_);
    outcomes_.assign(server.plan().num_shards(), ShardRoundOutcome{});
    ParallelFor(pool, outcomes_.size(), [&](std::size_t s) {
      outcomes_[s] =
          DeliverShardWithRetries(transport, updates, s, aggregator,
                                  updates.size(), krum_source, round, policy);
    });
    // Serial fold: the ledger and the clock stay deterministic for any pool.
    for (const ShardRoundOutcome& outcome : outcomes_) {
      ledger.corrupt_messages += outcome.corrupt;
      ledger.shard_outages += outcome.outages;
      ledger.shard_retries += outcome.retries;
      if (outcome.fallback) ++ledger.fallback_shards;
      max_backoff = std::max(max_backoff, outcome.backoff_ticks);
    }
  }
  {
    obs::ScopedSpan span("merge", merge_);
    server.MergeReceived(merged_).CheckOK();
  }
  obs::ScopedSpan span("apply", apply_);
  model.ApplySparseGradient(merged_, learning_rate);
  return max_backoff;
}

}  // namespace fedrec
