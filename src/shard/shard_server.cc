#include "shard/shard_server.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/stopwatch.h"
#include "shard/wire.h"

namespace fedrec {

namespace {

/// Grows a high-water buffer to at least `size` elements (never shrinks),
/// noting the growth as a sparse allocation.
template <typename T>
void GrowNoted(std::vector<T>& buffer, std::size_t size) {
  if (buffer.size() >= size) return;
  internal::NoteSparseGrowth(size, buffer.capacity());
  buffer.resize(size);
}

template <typename T>
void PushNoted(std::vector<T>& buffer, T value) {
  internal::NoteSparseGrowth(buffer.size() + 1, buffer.capacity());
  buffer.push_back(value);
}

}  // namespace

ShardServer::ShardServer(const ShardPlan& plan, std::size_t dim)
    : plan_(plan), dim_(dim), shards_(plan.num_shards()),
      received_(plan.num_shards()), received_bytes_(plan.num_shards(), 0),
      cursor_(plan.num_shards(), 0) {
  FEDREC_CHECK_GT(dim, 0u);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].rows_seen.Grow(plan_.policy() == ShardPolicy::kContiguousRange
                                  ? plan_.RangeEnd(s) - plan_.RangeBegin(s)
                                  : plan_.num_items());
  }
}

void ShardServer::RouteRound(std::span<const ClientUpdate> updates,
                             ThreadPool* pool) {
  // A row outside the plan would silently match no shard under the
  // contiguous policy; the single-server engine aborts on such a row at
  // Apply, so the router aborts too instead of quietly dropping it.
  for (const ClientUpdate& update : updates) {
    for (std::size_t row : update.item_gradients.row_ids()) {
      FEDREC_CHECK_LT(row, plan_.num_items())
          << "uploaded row outside the shard plan";
    }
  }
  // Each shard scans the whole round and keeps only its rows: S scans of the
  // row-id lists (cheap integer work) buy fully independent per-shard encode
  // loops — no shared output buffer, no ordering hand-off, and update order
  // is preserved per shard, which is what keeps every row's contributor
  // sequence identical to the single-server sweep.
  ParallelFor(pool, shards_.size(),
              [&](std::size_t s) { RouteShard(updates, s); });
  ++stats_.rounds;
  for (const ShardState& shard : shards_) {
    stats_.upload_messages += shard.message_count;
    stats_.upload_bytes += shard.inbox.buffer().size();
  }
}

void ShardServer::RouteShard(std::span<const ClientUpdate> updates,
                             std::size_t s) {
  ShardState& shard = shards_[s];
  Stopwatch timer;
  shard.inbox.Clear();
  shard.message_count = 0;
  for (std::size_t sequence = 0; sequence < updates.size(); ++sequence) {
    const ClientUpdate& update = updates[sequence];
    shard.route_slots.clear();
    const auto& rows = update.item_gradients.row_ids();
    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
      if (plan_.ShardOf(rows[slot]) == s) {
        shard.route_slots.push_back(static_cast<std::uint32_t>(slot));
      }
    }
    if (!shard.route_slots.empty()) {
      // The wire source id is the round-unique upload sequence number, not
      // the client id: ClientUpdate.user is attacker-controlled (a sybil
      // can impersonate a benign id), and Krum's winner broadcast must
      // match exactly one upload.
      EncodeUpload(update.item_gradients, sequence, shard.route_slots,
                   shard.inbox);
      ++shard.message_count;
    }
  }
  shard.route_seconds = timer.ElapsedSeconds();
}

// fedrec:hot — one copy of every routed row out of the wire; the arena and
// the stamps are retained, so a steady-state decode never grows them.
Status ShardServer::DecodeInbox(ShardState& shard, std::size_t s,
                                std::string_view wire,
                                std::size_t expected_messages) {
  UploadArena& arena = shard.arena;
  arena.sources.clear();
  arena.offsets.clear();
  PushNoted(arena.offsets, std::size_t{0});
  BinaryReader reader = BinaryReader::View(wire);
  while (!reader.exhausted()) {
    Result<UploadView> parsed = ParseUpload(reader);
    if (!parsed.ok()) return parsed.status();
    const UploadView& view = parsed.value();
    if (view.cols != dim_) {
      return Status::Corruption(
          "shard " + std::to_string(s) + ": upload dimension " +
          std::to_string(view.cols) + " != " + std::to_string(dim_));
    }
    // Routing encodes messages in ascending round-sequence order, so a
    // non-ascending source is a replayed (duplicate) or reordered delivery —
    // aggregating it would double-count the client.
    if (!arena.sources.empty() && view.source <= arena.sources.back()) {
      return Status::Corruption("shard " + std::to_string(s) +
                                ": duplicate or out-of-order upload source " +
                                std::to_string(view.source));
    }
    // A fresh mark per message: a row that already carries it was carried
    // twice by this message.
    const std::uint32_t mark = shard.rows_seen.NewMark();
    const std::size_t base = arena.offsets.back();
    const std::size_t end = base + view.row_count;
    GrowNoted(arena.rows, end);
    GrowNoted(arena.values, end * dim_);
    for (std::size_t i = 0; i < view.row_count; ++i) {
      const std::uint64_t row = view.RowId(i);
      if (row >= plan_.num_items() || plan_.ShardOf(row) != s) {
        return Status::Corruption("row " + std::to_string(row) +
                                  " routed to wrong shard " +
                                  std::to_string(s));
      }
      const std::size_t local = LocalRow(s, row);
      if (shard.rows_seen.Has(local, mark)) {
        return Status::Corruption("FRWU upload: duplicate row " +
                                  std::to_string(row));
      }
      shard.rows_seen.Set(local, mark);
      arena.rows[base + i] = static_cast<std::size_t>(row);
      view.CopyRow(i, arena.values.data() + (base + i) * dim_);
    }
    PushNoted(arena.sources, view.source);
    PushNoted(arena.offsets, end);
  }
  // A delivery truncated exactly at a message boundary decodes cleanly but
  // loses tail messages; the router's count exposes it. (Hand-filled test
  // inboxes never went through RouteRound and record no expectation.)
  if (expected_messages > 0 && arena.sources.size() != expected_messages) {
    return Status::Corruption(
        "shard " + std::to_string(s) + ": expected " +
        std::to_string(expected_messages) + " uploads, decoded " +
        std::to_string(arena.sources.size()));
  }
  return Status::OK();
}

void ShardServer::AggregateShard(ShardState& shard,
                                 const AggregatorOptions& options,
                                 std::size_t round_size,
                                 std::uint64_t krum_source) {
  const UploadArena& arena = shard.arena;
  if (options.kind != AggregatorKind::kKrum) {
    GatherRowIndex(std::span(arena.rows.data(), arena.offsets.back()),
                   arena.values.data(), dim_, shard.aggregation);
    AggregateRowIndex(dim_, options, shard.aggregation, shard.delta);
    return;
  }
  // Krum: the coordinator already selected the round's winner globally; this
  // shard emits the winner's routed rows through the same emit step as the
  // single-server rule, scaled by the round size. Sequence ids are
  // round-unique, so at most one message matches; when none does, the
  // winner touched no row of this shard and the shard delta is empty.
  std::size_t begin = 0;
  std::size_t end = 0;
  for (std::size_t m = 0; m < arena.sources.size(); ++m) {
    if (arena.sources[m] == krum_source) {
      begin = arena.offsets[m];
      end = arena.offsets[m + 1];
      break;
    }
  }
  GatherRowIndex(std::span(arena.rows.data() + begin, end - begin),
                 arena.values.data() + begin * dim_, dim_, shard.aggregation);
  EmitKrumSelected(dim_, static_cast<float>(round_size), shard.aggregation,
                   shard.delta);
}

Status ShardServer::AggregateShardRound(std::size_t s,
                                        const AggregatorOptions& options,
                                        std::size_t round_size,
                                        std::uint64_t krum_source) {
  const ShardState& shard = shards_[s];
  return AggregateShardRoundWire(s, shard.inbox.buffer(), shard.message_count,
                                 options, round_size, krum_source);
}

Status ShardServer::AggregateShardRoundWire(std::size_t s,
                                            std::string_view inbox_wire,
                                            std::size_t expected_messages,
                                            const AggregatorOptions& options,
                                            std::size_t round_size,
                                            std::uint64_t krum_source) {
  ShardState& shard = shards_[s];
  Stopwatch timer;
  const Status status = DecodeInbox(shard, s, inbox_wire, expected_messages);
  if (status.ok()) {
    AggregateShard(shard, options, round_size, krum_source);
    shard.delta_wire.Clear();
    EncodeDelta(shard.delta, shard.delta_wire);
  }
  shard.aggregate_seconds = timer.ElapsedSeconds();
  return status;
}

Status ShardServer::DecodeShardDeltaWire(std::size_t s,
                                         std::string_view frwd_wire) {
  BinaryReader reader = BinaryReader::View(frwd_wire);
  FEDREC_RETURN_NOT_OK(DecodeDelta(reader, received_[s]));
  if (!reader.exhausted()) {
    return Status::Corruption("shard " + std::to_string(s) +
                              ": trailing bytes after FRWD delta");
  }
  if (received_[s].cols() != dim_) {
    return Status::Corruption("shard " + std::to_string(s) +
                              ": delta dimension mismatch");
  }
  received_bytes_[s] = frwd_wire.size();
  return Status::OK();
}

Status ShardServer::DecodeShardDelta(std::size_t s) {
  return DecodeShardDeltaWire(s, shards_[s].delta_wire.buffer());
}

Status ShardServer::MergeReceived(SparseRoundDelta& out) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    cursor_[s] = 0;
    stats_.delta_bytes += received_bytes_[s];
  }
  // Sorted-row union: shard row sets are disjoint, so the merge is a k-way
  // pick-the-smallest-head walk copying whole rows. Under kContiguousRange
  // the walk degenerates to concatenation in shard order.
  out.Reset(dim_);
  constexpr std::size_t kDone = std::numeric_limits<std::size_t>::max();
  while (true) {
    std::size_t min_row = kDone;
    std::size_t min_shard = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (cursor_[s] >= received_[s].row_count()) continue;
      const std::size_t row = received_[s].rows()[cursor_[s]];
      if (row < min_row) {
        min_row = row;
        min_shard = s;
      } else if (row == min_row) {
        return Status::Corruption("row " + std::to_string(row) +
                                  " produced by two shards");
      }
    }
    if (min_row == kDone) break;
    const auto src = received_[min_shard].RowAtSlot(cursor_[min_shard]);
    std::copy(src.begin(), src.end(),
              out.AppendRowForOverwrite(min_row).begin());
    ++cursor_[min_shard];
  }
  return Status::OK();
}

}  // namespace fedrec
