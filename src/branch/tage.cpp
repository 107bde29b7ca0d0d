#include "branch/tage.h"

#include <algorithm>

#include "util/bits.h"
#include "util/check.h"

namespace sempe::branch {

Tage::Tage(const TageConfig& cfg) : cfg_(cfg), history_(kHistoryBits) {
  SEMPE_CHECK(is_pow2(cfg.bimodal_entries));
  SEMPE_CHECK(is_pow2(cfg.tagged_entries));
  SEMPE_CHECK(!cfg.history_lengths.empty());
  SEMPE_CHECK_MSG(cfg.tag_bits >= 2 && cfg.tag_bits <= 16,
                  "TageConfig::tag_bits " << cfg.tag_bits
                                          << " outside [2, 16]");
  for (usize len : cfg.history_lengths)
    SEMPE_CHECK_MSG(len >= 1 && len <= kHistoryBits,
                    "TageConfig::history_lengths entry "
                        << len << " outside [1, " << kHistoryBits << "]");
  bimodal_.assign(cfg.bimodal_entries, 2);  // weakly taken
  tables_.assign(cfg.history_lengths.size() * cfg.tagged_entries,
                 TaggedEntry{});
  index_bits_ = log2_floor(cfg.tagged_entries);
  index_mask_ = low_mask(index_bits_);
  tag_mask_ = low_mask(cfg.tag_bits);
  // A one-entry table masks its index to 0 whatever the fold holds.
  const u32 index_fold_bits = std::max(index_bits_, 1u);
  for (usize t = 0; t < cfg.history_lengths.size(); ++t) {
    const usize len = cfg.history_lengths[t];
    hash_.push_back({.index_fold = history_.add_fold(len, index_fold_bits),
                     .tag_fold = history_.add_fold(len, cfg.tag_bits),
                     .tag2_fold = history_.add_fold(len, cfg.tag_bits - 1),
                     .salt = t * 0x9e37u});
  }
  keys_.resize(hash_.size());
}

Tage::Prediction Tage::lookup(Addr pc) {
  Prediction p;
  p.bimodal_index = static_cast<usize>((pc >> 3) & (bimodal_.size() - 1));
  p.bimodal_taken = bimodal_[p.bimodal_index] >= 2;
  p.taken = p.bimodal_taken;
  p.alt_taken = p.bimodal_taken;

  // Find the two longest-history hits, hashing each table on the way down;
  // with no second hit the alternate stays bimodal. The search stops at
  // the alternate, so keys_ covers the provider and every table above it:
  // all that update() touches.
  const u64 pc_index = (pc >> 3) ^ (pc >> (3 + index_bits_));
  for (usize t = hash_.size(); t-- > 0;) {
    const TableHash& th = hash_[t];
    const u64 idx =
        (pc_index ^ th.salt ^ history_.fold(th.index_fold)) & index_mask_;
    TableKey& k = keys_[t];
    k.entry = t * cfg_.tagged_entries + static_cast<usize>(idx);
    k.tag = static_cast<u16>(((pc >> 3) ^ history_.fold(th.tag_fold) ^
                              (history_.fold(th.tag2_fold) << 1)) &
                             tag_mask_);
    const TaggedEntry& e = tables_[k.entry];
    if (e.tag != k.tag) continue;
    if (!p.provider_valid) {
      p.provider_valid = true;
      p.provider_table = t;
      p.taken = e.ctr >= 0;
    } else {
      p.alt_taken = e.ctr >= 0;
      break;
    }
  }
  return p;
}

bool Tage::predict(Addr pc) {
  last_ = lookup(pc);
  last_pc_ = pc;
  have_last_ = true;
  ++lookups_;
  return last_.taken;
}

void Tage::update(Addr pc, bool taken) {
  // Recompute if predict() wasn't the immediately preceding call for this pc
  // or the history moved since (defensive; the pipeline always pairs them).
  if (!have_last_ || last_pc_ != pc) last_ = lookup(pc);
  have_last_ = false;
  const Prediction& p = last_;

  if (p.taken != taken) ++mispredicts_;

  auto bump = [](i8& ctr, bool up, i8 lo, i8 hi) {
    if (up && ctr < hi) ++ctr;
    if (!up && ctr > lo) --ctr;
  };

  // Update provider (or bimodal when no provider).
  if (p.provider_valid) {
    TaggedEntry& e = tables_[keys_[p.provider_table].entry];
    bump(e.ctr, taken, -4, 3);
    // Useful counter: provider was right where alternate was wrong.
    if (p.taken != p.alt_taken) {
      if (p.taken == taken) {
        if (e.useful < 3) ++e.useful;
      } else if (e.useful > 0) {
        --e.useful;
      }
    }
  } else {
    u8& c = bimodal_[p.bimodal_index];
    if (taken && c < 3) ++c;
    if (!taken && c > 0) --c;
  }

  // Allocate a longer-history entry on misprediction.
  if (p.taken != taken) {
    const usize start = p.provider_valid ? p.provider_table + 1 : 0;
    bool allocated = false;
    for (usize t = start; t < keys_.size(); ++t) {
      TaggedEntry& e = tables_[keys_[t].entry];
      if (e.useful == 0) {
        e.tag = keys_[t].tag;
        e.ctr = taken ? 0 : -1;
        e.useful = 0;
        allocated = true;
        break;
      }
    }
    if (!allocated) {
      // Decay usefulness so that future allocations can succeed.
      for (usize t = start; t < keys_.size(); ++t) {
        TaggedEntry& e = tables_[keys_[t].entry];
        if (e.useful > 0) --e.useful;
      }
    }
  }

  history_.push(taken);
}

void Tage::note_unconditional(Addr pc) {
  (void)pc;
  history_.push(true);
  have_last_ = false;  // the cached keys were hashed from the old history
}

u64 Tage::digest() const {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (u8 c : bimodal_) mix(c);
  for (const TaggedEntry& e : tables_) {
    mix(static_cast<u64>(static_cast<u8>(e.ctr)));
    mix(e.tag);
    mix(e.useful);
  }
  mix(history_.digest());
  return h;
}

void Tage::reset() {
  bimodal_.assign(bimodal_.size(), 2);
  tables_.assign(tables_.size(), TaggedEntry{});
  history_.reset();
  lookups_ = mispredicts_ = 0;
  have_last_ = false;
}

}  // namespace sempe::branch
