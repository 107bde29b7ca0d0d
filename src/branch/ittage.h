// ITTAGE indirect-target predictor (Seznec 2011), ~6KB per Table II.
//
// Predicts full target addresses for indirect jumps (kJalr). A base table
// keyed by PC holds the last target; tagged tables keyed by folded global
// history override it, longest history first.
#pragma once

#include <vector>

#include "branch/history.h"
#include "util/types.h"

namespace sempe::branch {

struct ItTageConfig {
  usize base_entries = 256;
  usize tagged_entries = 128;
  u32 tag_bits = 9;
  std::vector<usize> history_lengths = {8, 20, 48};
};

class ItTage {
 public:
  explicit ItTage(const ItTageConfig& cfg = {});

  /// Predict the target of the indirect jump at pc (0 = no prediction).
  Addr predict(Addr pc);

  /// Train with the resolved target; advances the (target-bit) history.
  /// Reuses the lookup of an immediately preceding predict(pc).
  void update(Addr pc, Addr target);

  u64 lookups() const { return lookups_; }
  u64 mispredicts() const { return mispredicts_; }

  u64 digest() const;
  void reset();

 private:
  static constexpr usize kHistoryBits = 256;

  struct Entry {
    Addr target = 0;
    u16 tag = 0;
    u8 conf = 0;   // 2-bit confidence
    u8 useful = 0;
  };

  // Per tagged table, fixed at construction: its history fold slots and
  // the constant it salts the index hash with.
  struct TableHash {
    usize index_fold = 0;
    usize tag_fold = 0;
    u64 salt = 0;
  };

  // Where the jump under lookup lands in one tagged table.
  struct TableKey {
    usize entry = 0;  // flat index into tables_
    u16 tag = 0;
  };

  /// The provider for pc under the current history (the longest-history
  /// confident hit, or -1), filling keys_ for it and every table above it.
  int lookup(Addr pc);

  ItTageConfig cfg_;
  std::vector<Addr> base_;
  std::vector<Entry> tables_;   // table t at [t * tagged_entries, ...)
  GlobalHistory history_;
  std::vector<TableHash> hash_;
  u64 index_mask_ = 0;
  u64 tag_mask_ = 0;
  // Lookup state carried from predict() to update(), valid while
  // have_last_.
  std::vector<TableKey> keys_;
  int last_provider_ = -1;
  Addr last_pc_ = 0;
  bool have_last_ = false;
  u64 lookups_ = 0;
  u64 mispredicts_ = 0;
};

}  // namespace sempe::branch
