// Global branch history register with folded-history slots, shared by the
// TAGE and ITTAGE predictors.
#pragma once

#include <vector>

#include "util/bits.h"
#include "util/check.h"
#include "util/types.h"

namespace sempe::branch {

/// A shift register of branch outcomes (bit 0 = most recent), kept in a
/// power-of-two ring so every index is a mask, never a division.
///
/// The predictors hash with folds of the history: the most recent `len`
/// bits xor-reduced to `out_bits` bits. Each fold is registered once, at
/// predictor construction, with add_fold(), which returns a slot;
/// identical (len, out_bits) pairs share one slot. fold(slot) is an O(1)
/// read, and every push() updates each slot in O(1) (xor out the bit aging
/// past `len`, rotate left by 1 within out_bits, xor in the new bit). The
/// value always equals fold_eager(len, out_bits), the O(len) bit-by-bit
/// reference that seeds a slot and that the tests compare against.
class GlobalHistory {
 public:
  explicit GlobalHistory(usize max_bits = 512)
      : bits_(max_bits, 0), mask_(max_bits - 1) {
    SEMPE_CHECK_MSG(is_pow2(max_bits),
                    "history size " << max_bits << " must be a power of two");
  }

  /// Register the fold of the most recent `len` bits down to `out_bits`
  /// bits and return its slot, seeded from the current history.
  usize add_fold(usize len, u32 out_bits) {
    SEMPE_CHECK_MSG(len >= 1 && len <= bits_.size(),
                    "history length " << len << " outside [1, "
                                      << bits_.size() << "]");
    SEMPE_CHECK_MSG(out_bits >= 1 && out_bits <= 64,
                    "fold width " << out_bits << " outside [1, 64]");
    for (usize s = 0; s < folds_.size(); ++s)
      if (folds_[s].age == len - 1 && folds_[s].mask == low_mask(out_bits))
        return s;
    folds_.push_back({.value = fold_eager(len, out_bits),
                      .age = len - 1,
                      .mask = low_mask(out_bits),
                      .dying_mask = 1ull << ((len - 1) % out_bits),
                      .top_mask = 1ull << (out_bits - 1)});
    return folds_.size() - 1;
  }

  /// The current value of a slot returned by add_fold().
  u64 fold(usize slot) const { return folds_[slot].value; }

  void push(bool taken) {
    const u64 b = taken ? 1 : 0;
    // Locals: the u64 fold stores could otherwise alias the members.
    const u8* bits = bits_.data();
    const usize head = head_;
    const usize mask = mask_;
    for (Fold& f : folds_) {
      // Xor out the dying bit, rotate left by 1 within out_bits, xor in b;
      // masks instead of variable shifts.
      const u64 dying = bits[(head - f.age) & mask];
      const u64 v = f.value ^ (f.dying_mask & (0 - dying));
      const u64 carry = (v & f.top_mask) != 0 ? 1 : 0;
      f.value = (((v << 1) & f.mask) | carry) ^ b;
    }
    head_ = (head + 1) & mask;
    bits_[head_] = static_cast<u8>(b);
  }

  u8 bit(usize age) const { return bits_[(head_ - age) & mask_]; }

  /// Reference fold (len <= the register size), walked bit by bit: seeds
  /// a slot and checks it in tests.
  u64 fold_eager(usize len, u32 out_bits) const {
    u64 h = 0;
    u64 chunk = 0;
    u32 pos = 0;
    for (usize i = 0; i < len; ++i) {
      chunk |= static_cast<u64>(bit(i)) << pos;
      if (++pos == out_bits) {
        h ^= chunk;
        chunk = 0;
        pos = 0;
      }
    }
    h ^= chunk;
    return h & low_mask(out_bits);
  }

  /// Digest of the full history contents — attacker-visible predictor state.
  u64 digest() const {
    u64 h = 1469598103934665603ull;
    for (usize i = 0; i < bits_.size(); ++i) {
      h ^= bits_[i];
      h *= 1099511628211ull;
    }
    h ^= head_;
    return h;
  }

  void reset() {
    for (auto& b : bits_) b = 0;
    head_ = 0;
    for (Fold& f : folds_) f.value = 0;  // fold of all-zero history
  }

 private:
  struct Fold {
    u64 value = 0;
    usize age = 0;        // len - 1: the age of the bit about to die
    u64 mask = 0;         // low_mask(out_bits)
    u64 dying_mask = 0;   // bit (len - 1) % out_bits, where the dying bit sits
    u64 top_mask = 0;     // bit out_bits - 1, which the rotation wraps
  };

  std::vector<u8> bits_;
  usize mask_;
  usize head_ = 0;
  std::vector<Fold> folds_;
};

}  // namespace sempe::branch
