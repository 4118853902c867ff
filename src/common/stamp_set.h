#ifndef FEDREC_COMMON_STAMP_SET_H_
#define FEDREC_COMMON_STAMP_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

/// \file
/// Generation-stamped membership over [0, size): a value is in the set of
/// mark m iff its stamp equals m, so starting an empty set is one counter
/// bump instead of an O(size) clear. Behind the Floyd sampler, the negative
/// sampler, the upload builder's item->slot map and the shard decoder's
/// duplicate-row guard.

namespace fedrec {

class StampSet {
 public:
  StampSet() = default;
  /// Starts the mark counter at `last_mark` (tests drive it through a wrap).
  explicit StampSet(std::uint32_t last_mark) : last_mark_(last_mark) {}

  /// Makes [0, size) addressable; never shrinks, new slots carry no mark.
  void Grow(std::size_t size) {
    if (stamps_.size() < size) stamps_.resize(size, 0u);
  }

  /// A mark no slot carries. Mark 0 is never issued; when the counter wraps
  /// every stamp is cleared, which also empties the sets of earlier marks —
  /// take all the marks one pass needs before setting any.
  std::uint32_t NewMark() {
    if (++last_mark_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      last_mark_ = 1;
    }
    return last_mark_;
  }

  bool Has(std::size_t value, std::uint32_t mark) const {
    FEDREC_DCHECK(value < stamps_.size());
    return stamps_[value] == mark;
  }
  void Set(std::size_t value, std::uint32_t mark) {
    FEDREC_DCHECK(value < stamps_.size());
    stamps_[value] = mark;
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t last_mark_ = 0;
};

}  // namespace fedrec

#endif  // FEDREC_COMMON_STAMP_SET_H_
