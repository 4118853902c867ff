#ifndef FEDREC_NET_DEADLINE_WHEEL_H_
#define FEDREC_NET_DEADLINE_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// DeadlineWheel: a bucketed monotonic timer wheel for the serving loops'
/// liveness deadlines (heartbeat probes, peer timeouts, read deadlines).
///
/// Tags are small non-negative integers — in practice file descriptors — so
/// per-tag state is a flat vector, and each slot of the wheel is a reused
/// bucket of tags. Arm/Disarm are O(1); ExpireDue sweeps only the slots the
/// clock actually crossed, so a quiet loop with thousands of armed
/// connections pays per *due* deadline, not per connection. Disarm is lazy
/// (stale bucket entries are dropped at sweep time) and re-arming simply
/// inserts again — the entry table is the single source of truth.
///
/// The wheel never reads a clock: callers pass `now_ms` (MonotonicMillis in
/// FrameServer, a hand-advanced counter in tests), keeping the wheel free of
/// time sources and its expiry logic deterministic under test.

namespace fedrec {

class DeadlineWheel {
 public:
  /// `slot_ms` is the expiry granularity; `slot_count` slots cover a span of
  /// slot_ms * slot_count before deadlines wrap (a wrapped deadline is simply
  /// re-inserted when its slot is swept early, costing one extra visit per
  /// revolution).
  explicit DeadlineWheel(std::uint64_t slot_ms = 16,
                         std::size_t slot_count = 256);

  /// Arms (or re-arms) `tag` to fire at `deadline_ms`. A deadline at or
  /// before the last sweep position fires on the next ExpireDue.
  void Arm(std::uint64_t tag, std::uint64_t deadline_ms);

  /// Cancels `tag`'s deadline (harmless when not armed).
  void Disarm(std::uint64_t tag);

  bool armed(std::uint64_t tag) const {
    return tag < entries_.size() && entries_[tag].armed;
  }
  std::size_t armed_count() const { return armed_count_; }

  /// Earliest armed deadline, or false when nothing is armed. O(armed tags):
  /// called once per event-loop turn to size the poll timeout, where the
  /// connection count is bounded by the fd table.
  [[nodiscard]] bool NextDeadline(std::uint64_t& deadline_ms) const;

  /// Appends every tag whose deadline is <= `now_ms` to `due` (a reused
  /// caller buffer — not cleared here) and disarms it. `now_ms` must not
  /// decrease across calls; the wheel is monotonic.
  void ExpireDue(std::uint64_t now_ms, std::vector<std::uint64_t>& due);

 private:
  struct Entry {
    std::uint64_t deadline_ms = 0;
    std::size_t slot = 0;  ///< bucket holding this tag's live copy
    bool armed = false;
  };

  std::size_t SlotOf(std::uint64_t deadline_ms) const {
    return static_cast<std::size_t>(deadline_ms / slot_ms_) % slots_.size();
  }
  void EnsureEntry(std::uint64_t tag);

  std::uint64_t slot_ms_;
  std::vector<std::vector<std::uint64_t>> slots_;  ///< reused tag buckets
  std::vector<Entry> entries_;                     ///< indexed by tag
  std::size_t armed_count_ = 0;
  std::uint64_t cursor_ms_ = 0;  ///< everything before this has been swept
  std::vector<std::uint64_t> resweep_;  ///< sweep scratch (reused)
};

}  // namespace fedrec

#endif  // FEDREC_NET_DEADLINE_WHEEL_H_
