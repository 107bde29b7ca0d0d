// Per-cycle structural-resource allocator.
//
// Models a resource with `width` slots per cycle (fetch slots, rename
// slots, issue ports, FU pipes, retire slots): alloc(earliest) returns the
// first cycle >= earliest with a free slot and consumes it. Allocation
// requests arrive with non-decreasing `earliest` only in aggregate, so the
// live window [base_, top_) of per-cycle counts is kept in a power-of-two
// ring indexed by `cycle & mask_`: every slot outside the window holds 0,
// the ring doubles (re-laying the window) when an allocation lands past its
// capacity, and prune() zeroes the slots it vacates.
#pragma once

#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace sempe::pipeline {

class WidthLimiter {
 public:
  explicit WidthLimiter(u32 width) : width_(width), counts_(kInitialSlots, 0) {
    SEMPE_CHECK(width > 0);
  }

  Cycle alloc(Cycle earliest) {
    Cycle c = earliest < base_ ? base_ : earliest;
    while (c < top_ && counts_[c & mask_] >= width_) ++c;
    if (c >= top_) {
      if (c - base_ >= counts_.size()) grow(c);
      top_ = c + 1;
    }
    ++counts_[c & mask_];
    return c;
  }

  /// Drop bookkeeping for cycles before `before` (no allocations that early
  /// will ever be requested again); later requests below it are clamped up.
  void prune(Cycle before) {
    if (top_ == base_) {  // nothing recorded: the base just moves
      base_ = top_ = before;
      return;
    }
    if (before <= base_) return;
    const Cycle end = before < top_ ? before : top_;
    for (Cycle c = base_; c < end; ++c) counts_[c & mask_] = 0;
    base_ = before;
    if (top_ < base_) top_ = base_;
  }

  u32 width() const { return width_; }

 private:
  static constexpr usize kInitialSlots = 256;

  /// Double the ring until it spans [base_, c], re-laying the live window.
  void grow(Cycle c) {
    usize cap = counts_.size();
    while (cap <= c - base_) cap *= 2;
    std::vector<u32> next(cap, 0);
    for (Cycle k = base_; k < top_; ++k) next[k & (cap - 1)] = counts_[k & mask_];
    counts_.swap(next);
    mask_ = cap - 1;
  }

  u32 width_;
  Cycle base_ = 0;  // oldest cycle still tracked
  Cycle top_ = 0;   // one past the newest cycle with an allocation
  std::vector<u32> counts_;
  usize mask_ = kInitialSlots - 1;
};

}  // namespace sempe::pipeline
