#include "fed/aggregator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/kernels.h"
#include "common/math.h"
#include "common/threadpool.h"

namespace fedrec {

const char* AggregatorKindToString(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kSum:
      return "sum";
    case AggregatorKind::kTrimmedMean:
      return "trimmed-mean";
    case AggregatorKind::kMedian:
      return "median";
    case AggregatorKind::kNormBound:
      return "norm-bound";
    case AggregatorKind::kKrum:
      return "krum";
  }
  return "?";
}

void GatherRowIndex(std::span<const ClientUpdate> updates,
                    AggregationWorkspace& workspace) {
  std::size_t total_rows = 0;
  for (const ClientUpdate& update : updates) {
    total_rows += update.item_gradients.row_count();
  }
  std::vector<RowContribution>& entries = workspace.row_index;
  entries.clear();
  entries.reserve(total_rows);
  for (const ClientUpdate& update : updates) {
    const auto& rows = update.item_gradients.row_ids();
    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
      entries.push_back({rows[slot], update.item_gradients.RowAtSlot(slot).data()});
    }
  }
}

void GatherRowIndex(std::span<const std::size_t> rows, const float* values,
                    std::size_t dim, AggregationWorkspace& workspace) {
  std::vector<RowContribution>& entries = workspace.row_index;
  entries.resize(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    entries[k] = {rows[k], values + k * dim};
  }
}

void SortRowIndex(AggregationWorkspace& workspace) {
  std::vector<RowContribution>& entries = workspace.row_index;
  std::size_t max_row = 0;
  for (const RowContribution& entry : entries) {
    max_row = std::max(max_row, entry.row);
  }
  // Stable LSD radix passes over the row bytes: branch-free counting
  // scatters group the entries by row while preserving gather order within a
  // row (what stable_sort gave, minus its per-call temp buffer and minus a
  // comparison sort's mispredicted branches on fresh data every round).
  // All scratch lives in the workspace; zero steady-state allocations.
  std::vector<RowContribution>& scratch = workspace.row_index_scratch;
  std::vector<std::uint32_t>& counts = workspace.radix_counts;
  scratch.resize(entries.size());
  counts.resize(256);
  std::vector<RowContribution>* source = &entries;
  std::vector<RowContribution>* target = &scratch;
  for (std::size_t shift = 0;
       shift < 64 && ((max_row >> shift) != 0 || shift == 0); shift += 8) {
    std::fill(counts.begin(), counts.end(), 0u);
    for (const RowContribution& entry : *source) {
      ++counts[(entry.row >> shift) & 0xFF];
    }
    std::uint32_t running = 0;
    for (std::uint32_t& count : counts) {
      const std::uint32_t begin = running;
      running += count;
      count = begin;
    }
    for (const RowContribution& entry : *source) {
      (*target)[counts[(entry.row >> shift) & 0xFF]++] = entry;
    }
    std::swap(source, target);
  }
  if (source != &entries) entries.swap(scratch);
}

namespace {

/// Fills workspace.group_offsets/group_rows with the start and row id of
/// every contiguous same-row run of the sorted index (plus a trailing
/// offset sentinel) and bulk-assigns the rows to the delta WITHOUT zeroing —
/// every rule below writes its first contribution into the row instead of
/// accumulating onto zeros. Returns the group count. After this, shards may
/// fill out.RowAtSlot(g) for disjoint group ranges without shared state.
std::size_t BuildGroups(AggregationWorkspace& workspace, SparseRoundDelta& out) {
  const std::vector<RowContribution>& entries = workspace.row_index;
  std::vector<std::size_t>& offsets = workspace.group_offsets;
  std::vector<std::size_t>& rows = workspace.group_rows;
  offsets.clear();
  rows.clear();
  for (std::size_t group_begin = 0; group_begin < entries.size();) {
    const std::size_t row = entries[group_begin].row;
    offsets.push_back(group_begin);
    rows.push_back(row);
    std::size_t group_end = group_begin;
    while (group_end < entries.size() && entries[group_end].row == row) {
      ++group_end;
    }
    group_begin = group_end;
  }
  offsets.push_back(entries.size());
  out.AssignRowsForOverwrite(rows);
  return rows.size();
}

/// Runs worker(group_begin, group_end, scratch) over a static partition of
/// the groups into `num_shards` contiguous ranges (0 = pool size, 1 without
/// a pool), fanned across `pool` when present. Row groups are independent
/// and the partition never splits a group, so the result is bit-identical
/// to the serial sweep for every shard count.
template <typename Worker>
void ForEachGroupSharded(AggregationWorkspace& workspace, std::size_t groups,
                         ThreadPool* pool, std::size_t num_shards,
                         Worker&& worker) {
  std::size_t shards = num_shards != 0
                           ? num_shards
                           : (pool != nullptr ? pool->thread_count() : 1);
  shards = std::min(std::max<std::size_t>(1, shards), groups);
  if (workspace.shards.size() < shards) workspace.shards.resize(shards);
  if (shards == 1) {
    worker(0, groups, workspace.shards[0]);
    return;
  }
  ParallelFor(pool, shards, [&](std::size_t s) {
    worker(groups * s / shards, groups * (s + 1) / shards,
           workspace.shards[s]);
  });
}

void AggregateSumGroups(const AggregationWorkspace& workspace, std::size_t dim,
                        std::size_t group_begin, std::size_t group_end,
                        SparseRoundDelta& out) {
  // Each output element accumulates its contributors in update order
  // (stable sort), exactly like the historical per-update dense AddTo sweep;
  // the first contributor is copied (rows arrive unzeroed), the rest add.
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const RowContribution* contributors =
        workspace.row_index.data() + workspace.group_offsets[g];
    const std::size_t n =
        workspace.group_offsets[g + 1] - workspace.group_offsets[g];
    auto acc = out.RowAtSlot(g);
    std::copy(contributors[0].data, contributors[0].data + dim, acc.begin());
    for (std::size_t i = 1; i < n; ++i) {
      kernels::Axpy(1.0f, contributors[i].data, acc.data(), dim);
    }
  }
}

void AggregateNormBoundGroups(const AggregationWorkspace& workspace,
                              std::size_t dim, double norm_bound,
                              std::size_t group_begin, std::size_t group_end,
                              AggregationWorkspace::ShardScratch& scratch,
                              SparseRoundDelta& out) {
  std::vector<float>& clipped = scratch.clipped;
  clipped.resize(dim);
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const RowContribution* contributors =
        workspace.row_index.data() + workspace.group_offsets[g];
    const std::size_t n =
        workspace.group_offsets[g + 1] - workspace.group_offsets[g];
    auto acc = out.RowAtSlot(g);
    // First contributor is clipped straight into the (unzeroed) output row;
    // later contributors clip into scratch and add.
    std::copy(contributors[0].data, contributors[0].data + dim, acc.begin());
    ClipL2(acc, static_cast<float>(norm_bound));
    for (std::size_t i = 1; i < n; ++i) {
      std::copy(contributors[i].data, contributors[i].data + dim,
                clipped.begin());
      ClipL2(clipped, static_cast<float>(norm_bound));
      Axpy(1.0f, clipped, acc);
    }
  }
}

/// Median / trimmed mean over each group's contributors, coordinate by
/// coordinate. The group's n rows are copied into an n x dim tile whose
/// columns one sorting network orders all at once (kernels::SortColumns);
/// the order statistics are then read off whole tile rows: rows n/2 - 1 and
/// n/2 for the median, the kept middle [trim, n - trim) summed in ascending
/// order for the trimmed mean.
///
/// For NaN-free input this is bit-identical to sorting every column on its
/// own (the historical nth_element / std::sort kernel), with one exception:
/// when the median selects a zero from a column holding both -0.0 and +0.0,
/// either sign may come out, because neither sort orders equal-valued zeros
/// (the results are equal by value). The trimmed mean has no such case: its
/// double sum starts at +0.0, so a sum of zeros is +0.0 whatever their signs.
void AggregateCoordinateWiseGroups(
    const AggregationWorkspace& workspace, std::size_t dim, bool median,
    double trim_fraction, std::size_t group_begin, std::size_t group_end,
    AggregationWorkspace::ShardScratch& scratch, SparseRoundDelta& out) {
  std::vector<float>& tile = scratch.tile;
  std::vector<double>& sums = scratch.sums;
  sums.resize(dim);
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const RowContribution* contributors =
        workspace.row_index.data() + workspace.group_offsets[g];
    const std::size_t n =
        workspace.group_offsets[g + 1] - workspace.group_offsets[g];
    if (tile.size() < n * dim) tile.resize(n * dim);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(contributors[i].data, contributors[i].data + dim,
                tile.data() + i * dim);
    }
    kernels::SortColumns(tile.data(), n, dim);
    // Rescale by the contributor count to stay comparable with kSum.
    const double scale = static_cast<double>(n);
    auto acc = out.RowAtSlot(g);
    if (median) {
      const float* upper = tile.data() + (n / 2) * dim;
      if (n % 2 == 1) {
        for (std::size_t d = 0; d < dim; ++d) {
          acc[d] = static_cast<float>(static_cast<double>(upper[d]) * scale);
        }
      } else {
        const float* lower = upper - dim;
        for (std::size_t d = 0; d < dim; ++d) {
          // Float addition first, exactly like the historical
          // column[n/2 - 1] + column[n/2] on the sorted column.
          const float middle = lower[d] + upper[d];
          acc[d] = static_cast<float>(0.5 * middle * scale);
        }
      }
      continue;
    }
    std::size_t trim = static_cast<std::size_t>(
        std::floor(trim_fraction * static_cast<double>(n)));
    if (2 * trim >= n) trim = (n - 1) / 2;
    std::fill(sums.begin(), sums.end(), 0.0);
    for (std::size_t i = trim; i < n - trim; ++i) {
      const float* sorted = tile.data() + i * dim;
      for (std::size_t d = 0; d < dim; ++d) sums[d] += sorted[d];
    }
    const double kept = static_cast<double>(n - 2 * trim);
    for (std::size_t d = 0; d < dim; ++d) {
      acc[d] = static_cast<float>(sums[d] / kept * scale);
    }
  }
}

}  // namespace

void EmitKrumSelected(std::size_t dim, float scale,
                      AggregationWorkspace& workspace, SparseRoundDelta& out) {
  // Only the selected client's rows are touched; the row index sorts them
  // into the delta's ascending order (one upload never repeats a row).
  out.Reset(dim);
  SortRowIndex(workspace);
  for (const RowContribution& entry : workspace.row_index) {
    kernels::Axpy(scale, entry.data, out.AppendRow(entry.row).data(), dim);
  }
}

std::size_t KrumSelect(std::span<const ClientUpdate> updates,
                       std::size_t num_items, std::size_t dim,
                       std::size_t honest) {
  (void)num_items;
  FEDREC_CHECK(!updates.empty());
  const std::size_t n = updates.size();
  if (n == 1) return 0;
  if (honest == 0 || honest > n) {
    honest = static_cast<std::size_t>(std::ceil(0.7 * static_cast<double>(n)));
  }
  // Per-update tables: rows sorted by id with direct value pointers, one
  // double row norm each, and the total squared norm. With these,
  //   ||a - b||^2 = ||a||^2 + ||b||^2 - 2 <a, b>
  // over the sparse union, so each pair costs O(overlap * dim) for the shared
  // dot products plus an O(rows) merge — absent rows are covered by the
  // precomputed totals instead of being re-reduced for every pair.
  struct UpdateTable {
    std::vector<std::size_t> rows;   // sorted row ids
    std::vector<const float*> data;  // values, parallel to rows
    double total_norm2 = 0.0;
  };
  std::vector<UpdateTable> tables(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SparseRowMatrix& upload = updates[i].item_gradients;
    const auto& row_ids = upload.row_ids();
    std::vector<std::size_t> order(row_ids.size());
    for (std::size_t slot = 0; slot < order.size(); ++slot) order[slot] = slot;
    std::sort(order.begin(), order.end(),
              [&row_ids](std::size_t a, std::size_t b) {
                return row_ids[a] < row_ids[b];
              });
    UpdateTable& table = tables[i];
    table.rows.reserve(order.size());
    table.data.reserve(order.size());
    for (std::size_t slot : order) {
      const auto row = upload.RowAtSlot(slot);
      table.rows.push_back(row_ids[slot]);
      table.data.push_back(row.data());
      // Coordinate-wise double accumulation: the norm expansion below
      // cancels catastrophically for near-identical updates, so float row
      // norms would drown the true distances of clustered clients in noise.
      double norm2 = 0.0;
      for (const float v : row) norm2 += static_cast<double>(v) * v;
      table.total_norm2 += norm2;
    }
  }
  auto distance2 = [&](const UpdateTable& a, const UpdateTable& b) {
    double cross = 0.0;
    std::size_t ia = 0, ib = 0;
    while (ia < a.rows.size() && ib < b.rows.size()) {
      if (a.rows[ia] < b.rows[ib]) {
        ++ia;
      } else if (a.rows[ia] > b.rows[ib]) {
        ++ib;
      } else {
        const float* ra = a.data[ia];
        const float* rb = b.data[ib];
        for (std::size_t d = 0; d < dim; ++d) {
          cross += static_cast<double>(ra[d]) * rb[d];
        }
        ++ia;
        ++ib;
      }
    }
    return std::max(0.0, a.total_norm2 + b.total_norm2 - 2.0 * cross);
  };

  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dist[i][j] = dist[j][i] = distance2(tables[i], tables[j]);
    }
  }
  // Score: sum of the closest (honest - 2) neighbour distances.
  const std::size_t neighbours =
      honest >= 2 ? std::min(honest - 2, n - 1) : std::min<std::size_t>(1, n - 1);
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> row;
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row.push_back(dist[i][j]);
    }
    std::sort(row.begin(), row.end());
    double score = 0.0;
    for (std::size_t r = 0; r < std::max<std::size_t>(1, neighbours) && r < row.size();
         ++r) {
      score += row[r];
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

// fedrec:hot — the server's per-round reduction; all scratch lives in the
// caller-owned workspace, so the body itself may not allocate.
void AggregateUpdates(std::span<const ClientUpdate> updates, std::size_t dim,
                      const AggregatorOptions& options,
                      AggregationWorkspace& workspace, SparseRoundDelta& out,
                      ThreadPool* pool, std::size_t num_shards) {
  if (options.kind != AggregatorKind::kKrum) {
    GatherRowIndex(updates, workspace);
    AggregateRowIndex(dim, options, workspace, out, pool, num_shards);
    return;
  }
  // Krum is a whole-round selection, not a per-row reduction; it never
  // shards (the selected upload's emit loop is O(kappa * dim)).
  out.Reset(dim);
  if (updates.empty()) return;
  const std::size_t pick =
      KrumSelect(updates, /*num_items=*/0, dim, options.krum_honest);
  GatherRowIndex(updates.subspan(pick, 1), workspace);
  EmitKrumSelected(dim, static_cast<float>(updates.size()), workspace, out);
}

// fedrec:hot
void AggregateRowIndex(std::size_t dim, const AggregatorOptions& options,
                       AggregationWorkspace& workspace, SparseRoundDelta& out,
                       ThreadPool* pool, std::size_t num_shards) {
  FEDREC_CHECK(options.kind != AggregatorKind::kKrum)
      << "Krum is a whole-round selection; use EmitKrumSelected";
  out.Reset(dim);
  SortRowIndex(workspace);
  const std::size_t groups = BuildGroups(workspace, out);
  if (groups == 0) return;
  switch (options.kind) {
    case AggregatorKind::kSum:
      ForEachGroupSharded(workspace, groups, pool, num_shards,
                          [&](std::size_t group_begin, std::size_t group_end,
                              AggregationWorkspace::ShardScratch&) {
                            AggregateSumGroups(workspace, dim, group_begin,
                                               group_end, out);
                          });
      return;
    case AggregatorKind::kNormBound:
      ForEachGroupSharded(
          workspace, groups, pool, num_shards,
          [&](std::size_t group_begin, std::size_t group_end,
              AggregationWorkspace::ShardScratch& scratch) {
            AggregateNormBoundGroups(workspace, dim, options.norm_bound,
                                     group_begin, group_end, scratch, out);
          });
      return;
    case AggregatorKind::kTrimmedMean:
    case AggregatorKind::kMedian:
      ForEachGroupSharded(
          workspace, groups, pool, num_shards,
          [&](std::size_t group_begin, std::size_t group_end,
              AggregationWorkspace::ShardScratch& scratch) {
            AggregateCoordinateWiseGroups(
                workspace, dim, options.kind == AggregatorKind::kMedian,
                options.trim_fraction, group_begin, group_end, scratch, out);
          });
      return;
    case AggregatorKind::kKrum:
      return;  // rejected above
  }
}

}  // namespace fedrec
