// Branch target buffer and return address stack.
//
// The BTB supplies taken-branch targets at fetch; the RAS predicts return
// targets for call/return pairs (jal ra / jalr x0, ra).
#pragma once

#include <vector>

#include "util/bits.h"
#include "util/check.h"
#include "util/types.h"

namespace sempe::branch {

class Btb {
 public:
  explicit Btb(usize entries = 4096) : entries_(entries) {
    SEMPE_CHECK(is_pow2(entries));
    table_.resize(entries);
  }

  /// Look up the target for pc; 0 means miss.
  Addr lookup(Addr pc) const {
    const Entry& e = table_[index(pc)];
    return (e.valid && e.pc == pc) ? e.target : 0;
  }

  void insert(Addr pc, Addr target) {
    table_[index(pc)] = {.valid = true, .pc = pc, .target = target};
  }

  u64 digest() const {
    u64 h = 1469598103934665603ull;
    for (const Entry& e : table_) {
      h ^= e.valid ? (e.pc ^ e.target) : 0;
      h *= 1099511628211ull;
    }
    return h;
  }

  void reset() {
    for (Entry& e : table_) e = Entry{};
  }

 private:
  struct Entry {
    bool valid = false;
    Addr pc = 0;
    Addr target = 0;
  };
  usize index(Addr pc) const { return (pc >> 3) & (entries_ - 1); }

  usize entries_;
  std::vector<Entry> table_;
};

/// A fixed ring of `depth` return addresses: a push at full depth
/// overwrites the oldest entry in O(1).
class ReturnAddressStack {
 public:
  explicit ReturnAddressStack(usize depth = 32) : ring_(depth, 0) {
    SEMPE_CHECK_MSG(depth > 0, "ReturnAddressStack depth must be > 0");
  }

  void push(Addr ret) {
    ring_[top_] = ret;
    if (++top_ == ring_.size()) top_ = 0;
    if (size_ < ring_.size()) ++size_;
  }

  /// Pop a predicted return target; 0 if empty.
  Addr pop() {
    if (size_ == 0) return 0;
    top_ = (top_ == 0 ? ring_.size() : top_) - 1;
    --size_;
    return ring_[top_];
  }

  usize size() const { return size_; }
  void reset() { top_ = size_ = 0; }

  /// Digest of the live entries, bottom of the stack to top.
  u64 digest() const {
    u64 h = 1469598103934665603ull;
    usize i = top_ >= size_ ? top_ - size_ : top_ + ring_.size() - size_;
    for (usize n = 0; n < size_; ++n) {
      h ^= ring_[i];
      h *= 1099511628211ull;
      if (++i == ring_.size()) i = 0;
    }
    return h;
  }

 private:
  std::vector<Addr> ring_;
  usize top_ = 0;   // slot the next push writes
  usize size_ = 0;  // live entries, ending just below top_
};

}  // namespace sempe::branch
