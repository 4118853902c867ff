#ifndef FEDREC_FED_AGGREGATOR_H_
#define FEDREC_FED_AGGREGATOR_H_

#include <span>
#include <vector>

#include "common/matrix.h"
#include "fed/client.h"
#include "fed/config.h"

/// \file
/// Server-side gradient aggregation. kSum implements the paper's protocol
/// (Eq. 7). The byzantine-robust rules (trimmed mean, median, norm-bound,
/// Krum) implement the future-work defenses of Section VI so the defense
/// ablation bench can measure how FedRecAttack fares against them.
///
/// Robust rules operate per item row over the *contributing* clients only
/// (clients that uploaded a non-zero row for that item), and rescale by the
/// contributor count so their output magnitude is comparable to kSum — in FR
/// most clients touch disjoint item subsets, which is exactly why the paper
/// argues classical byzantine-robust rules fit FR poorly.
///
/// A round only moves the rows its clients uploaded, so the aggregate is a
/// SparseRoundDelta over the touched rows — O(touched * dim) instead of
/// O(num_items * dim) — and all scratch state lives in a caller-owned
/// AggregationWorkspace that is reused round over round
/// (SparseRoundDelta::ToDense materializes the delta for tests).
///
/// Every per-row rule runs over one flat row -> contributors index, built in
/// two halves: a gather (from ClientUpdates, or from a shard server's flat
/// arena of decoded wire rows) and a stable radix sort by row id. The single
/// server and the shard servers share the sort, the row groups and the
/// kernels, which keeps the two bit-identical by construction.

namespace fedrec {

/// One uploaded row: the item id plus a direct pointer to the contributor's
/// values (resolved once — the per-coordinate aggregation loops never pay a
/// row lookup again).
struct RowContribution {
  std::size_t row;
  const float* data;
};

/// Reusable server-side aggregation scratch. All vectors keep their capacity
/// across rounds, so steady-state aggregation performs no allocations.
struct AggregationWorkspace {
  /// Flat row -> contributors index: every uploaded row as a (row, values)
  /// entry, gathered in upload order and then stably grouped by row id (LSD
  /// radix passes), so each item's contributors form one contiguous run in
  /// upload order.
  std::vector<RowContribution> row_index;
  /// Radix ping-pong buffer and per-pass histogram for SortRowIndex.
  std::vector<RowContribution> row_index_scratch;
  std::vector<std::uint32_t> radix_counts;
  /// Group partition of `row_index`: group_offsets[g] is the index of the
  /// g-th distinct row's first contributor; the trailing sentinel is
  /// row_index.size(). Groups are what the parallel path shards over.
  std::vector<std::size_t> group_offsets;
  /// Distinct row ids, ascending (parallel to group_offsets minus the
  /// sentinel); bulk-assigned into the output delta.
  std::vector<std::size_t> group_rows;
  /// Per-shard kernel buffers. shards[0] doubles as the serial path's
  /// scratch; the vector grows to the shard count in use and each entry's
  /// capacity is retained across rounds.
  struct ShardScratch {
    /// n x dim contributor tile the median / trimmed-mean kernel sorts
    /// column by column (high-water, retained across rounds).
    std::vector<float> tile;
    /// Per-coordinate sums of the trimmed mean's kept middle.
    std::vector<double> sums;
    /// Row clip buffer (norm-bound).
    std::vector<float> clipped;
  };
  std::vector<ShardScratch> shards;
};

/// Gather half of the row index: refills `workspace.row_index` with every
/// row of `updates` in update order (within an update, in row_ids() order).
void GatherRowIndex(std::span<const ClientUpdate> updates,
                    AggregationWorkspace& workspace);

/// The same gather over a flat arena: row `rows[k]` holds the `dim` floats
/// at `values + k * dim`. The shard servers decode their FRWU inbox into
/// such an arena, so their index points straight at the decoded rows.
void GatherRowIndex(std::span<const std::size_t> rows, const float* values,
                    std::size_t dim, AggregationWorkspace& workspace);

/// Sort half of the row index: stable LSD radix sort of `workspace.row_index`
/// by row id, so every row's contributors keep their gather order.
void SortRowIndex(AggregationWorkspace& workspace);

class ThreadPool;

/// Aggregates one round of uploads into the touched-row delta `out`
/// (out.rows() is the ascending union of all uploaded row ids; for kKrum only
/// the selected client's rows). All five AggregatorKind rules are routed
/// through this entry point; the result is bit-identical to materializing
/// the historical dense gradient.
///
/// When `pool` is non-null the per-row work is sharded across the pool by
/// contiguous ranges of the row->contributors groups (`num_shards` ranges;
/// 0 derives the count from the pool size). Every row is produced by exactly
/// one shard with the same contributor order as the serial sweep, so the
/// result is bit-identical for any shard count; kKrum is a whole-round
/// selection and ignores the pool. Shard scratch lives in `workspace` and is
/// reused round over round.
void AggregateUpdates(std::span<const ClientUpdate> updates, std::size_t dim,
                      const AggregatorOptions& options,
                      AggregationWorkspace& workspace, SparseRoundDelta& out,
                      ThreadPool* pool = nullptr, std::size_t num_shards = 0);

/// The per-row rules (every kind but kKrum) over an already gathered
/// `workspace.row_index`: sorts it, partitions it into row groups and runs
/// the rule's kernel into `out`. AggregateUpdates is GatherRowIndex plus
/// this; a shard server gathers from its decoded arena instead.
void AggregateRowIndex(std::size_t dim, const AggregatorOptions& options,
                       AggregationWorkspace& workspace, SparseRoundDelta& out,
                       ThreadPool* pool = nullptr, std::size_t num_shards = 0);

/// Resets `out` to `dim` columns and emits the gathered `workspace.row_index`
/// — one upload's rows — in ascending row order, scaled by `scale`: the Krum
/// emit step (the selected client's update stands in for the whole round,
/// rescaled to the round size to keep the learning-rate semantics of Eq. 7).
/// Shared by the single-server kKrum rule and the shard servers, whose
/// winner is selected globally, so the two paths are bit-identical by
/// construction.
void EmitKrumSelected(std::size_t dim, float scale,
                      AggregationWorkspace& workspace, SparseRoundDelta& out);

/// Krum selection: index into `updates` of the client whose upload minimizes
/// the summed squared distance to its closest (honest - 2) neighbours,
/// treating absent rows as zeros. Exposed for tests, the detector bench and
/// the sharded coordinator (Krum is a whole-round decision, so a sharded
/// server selects once globally and broadcasts the winner to its shards).
std::size_t KrumSelect(std::span<const ClientUpdate> updates,
                       std::size_t num_items, std::size_t dim,
                       std::size_t honest);

}  // namespace fedrec

#endif  // FEDREC_FED_AGGREGATOR_H_
