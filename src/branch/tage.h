// TAGE conditional branch predictor (Seznec, MICRO 2011), sized to the
// ~31KB budget of Table II: a bimodal base predictor plus tagged tables
// with geometrically increasing history lengths.
//
// SeMPE property: secure branches (sJMP) never call predict() or update(),
// so no secret-dependent state ever enters these tables. The digest()
// method exposes the state so tests can verify that.
#pragma once

#include <array>
#include <vector>

#include "branch/history.h"
#include "util/types.h"

namespace sempe::branch {

struct TageConfig {
  usize bimodal_entries = 8192;          // 2-bit counters  -> 2KB
  usize tagged_entries = 2048;           // per tagged table
  u32 tag_bits = 11;
  std::vector<usize> history_lengths = {4, 9, 19, 40, 85, 180};
  // 6 tables * 2048 * (3b ctr + 2b u + 11b tag) = 6 * 4KB = 24KB; ~26KB total,
  // within the 31KB budget with the loop predictor the paper's TAGE omits.
};

class Tage {
 public:
  explicit Tage(const TageConfig& cfg = {});

  /// Predict the direction of the conditional branch at pc.
  bool predict(Addr pc);

  /// Train with the resolved outcome and advance global history.
  /// Must be called exactly once per predicted branch, in order.
  void update(Addr pc, bool taken);

  /// Advance history for a branch whose outcome is architecturally exposed
  /// without consulting the predictor (unconditional jumps).
  void note_unconditional(Addr pc);

  u64 lookups() const { return lookups_; }
  u64 mispredicts() const { return mispredicts_; }
  double mispredict_rate() const {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(mispredicts_) /
                               static_cast<double>(lookups_);
  }

  /// Digest of all predictor state (tables + history). Used by the security
  /// indistinguishability checker.
  u64 digest() const;

  void reset();

 private:
  static constexpr usize kHistoryBits = 512;

  struct TaggedEntry {
    u16 tag = 0;
    i8 ctr = 0;       // 3-bit signed: -4..3, taken if >= 0
    u8 useful = 0;    // 2-bit
  };

  // Per tagged table, fixed at construction: its history fold slots and
  // the constant it salts the index hash with.
  struct TableHash {
    usize index_fold = 0;
    usize tag_fold = 0;
    usize tag2_fold = 0;  // tag_bits - 1 wide, shifted left by one
    u64 salt = 0;
  };

  // Where the branch under lookup lands in one tagged table.
  struct TableKey {
    usize entry = 0;  // flat index into tables_
    u16 tag = 0;
  };

  struct Prediction {
    bool taken = false;
    bool provider_valid = false;   // a tagged table hit
    usize provider_table = 0;
    bool alt_taken = false;        // alternate (next-hit or bimodal)
    bool bimodal_taken = false;
    usize bimodal_index = 0;
  };

  /// Look pc up under the current history, filling keys_ for the provider
  /// and every table above it.
  Prediction lookup(Addr pc);

  TageConfig cfg_;
  std::vector<u8> bimodal_;            // 2-bit counters
  std::vector<TaggedEntry> tables_;    // table t at [t * tagged_entries, ...)
  GlobalHistory history_;
  std::vector<TableHash> hash_;
  u32 index_bits_ = 0;
  u64 index_mask_ = 0;
  u64 tag_mask_ = 0;
  // Lookup state carried from predict() to update(): valid while
  // have_last_, i.e. until the history moves.
  std::vector<TableKey> keys_;
  Prediction last_;
  Addr last_pc_ = 0;
  bool have_last_ = false;
  u64 lookups_ = 0;
  u64 mispredicts_ = 0;
};

}  // namespace sempe::branch
