#include "branch/ittage.h"

#include <algorithm>

#include "util/bits.h"
#include "util/check.h"

namespace sempe::branch {

ItTage::ItTage(const ItTageConfig& cfg) : cfg_(cfg), history_(kHistoryBits) {
  SEMPE_CHECK(is_pow2(cfg.base_entries));
  SEMPE_CHECK(is_pow2(cfg.tagged_entries));
  SEMPE_CHECK_MSG(cfg.tag_bits >= 1 && cfg.tag_bits <= 16,
                  "ItTageConfig::tag_bits " << cfg.tag_bits
                                            << " outside [1, 16]");
  for (usize len : cfg.history_lengths)
    SEMPE_CHECK_MSG(len >= 1 && len <= kHistoryBits,
                    "ItTageConfig::history_lengths entry "
                        << len << " outside [1, " << kHistoryBits << "]");
  base_.assign(cfg.base_entries, 0);
  tables_.assign(cfg.history_lengths.size() * cfg.tagged_entries, Entry{});
  const u32 index_bits = log2_floor(cfg.tagged_entries);
  index_mask_ = low_mask(index_bits);
  tag_mask_ = low_mask(cfg.tag_bits);
  // A one-entry table masks its index to 0 whatever the fold holds.
  const u32 index_fold_bits = std::max(index_bits, 1u);
  for (usize t = 0; t < cfg.history_lengths.size(); ++t) {
    const usize len = cfg.history_lengths[t];
    hash_.push_back({.index_fold = history_.add_fold(len, index_fold_bits),
                     .tag_fold = history_.add_fold(len, cfg.tag_bits),
                     .salt = t * 0x51ull});
  }
  keys_.resize(hash_.size());
}

int ItTage::lookup(Addr pc) {
  // Hash each table on the way down and stop at the provider, so keys_
  // covers the provider and every table above it: all that update()
  // touches.
  for (usize t = hash_.size(); t-- > 0;) {
    const TableHash& th = hash_[t];
    const u64 h = history_.fold(th.tag_fold);
    const u64 idx =
        ((pc >> 3) ^ history_.fold(th.index_fold) ^ th.salt) & index_mask_;
    TableKey& k = keys_[t];
    k.entry = t * cfg_.tagged_entries + static_cast<usize>(idx);
    k.tag = static_cast<u16>(((pc >> 3) ^ (h << 1) ^ h) & tag_mask_);
    const Entry& e = tables_[k.entry];
    if (e.target != 0 && e.tag == k.tag && e.conf >= 1)
      return static_cast<int>(t);
  }
  return -1;
}

Addr ItTage::predict(Addr pc) {
  ++lookups_;
  last_provider_ = lookup(pc);
  last_pc_ = pc;
  have_last_ = true;
  return last_provider_ >= 0
             ? tables_[keys_[static_cast<usize>(last_provider_)].entry].target
             : base_[(pc >> 3) & (base_.size() - 1)];
}

void ItTage::update(Addr pc, Addr target) {
  // Re-derive the provider if predict() wasn't the immediately preceding
  // call for this pc (defensive; the pipeline always pairs them).
  if (!have_last_ || last_pc_ != pc) last_provider_ = lookup(pc);
  have_last_ = false;
  const int provider = last_provider_;

  Addr& base = base_[(pc >> 3) & (base_.size() - 1)];
  Entry* pe = provider >= 0
                  ? &tables_[keys_[static_cast<usize>(provider)].entry]
                  : nullptr;
  const Addr predicted = pe != nullptr ? pe->target : base;
  const bool correct = predicted == target;
  if (!correct) ++mispredicts_;

  if (pe != nullptr) {
    Entry& e = *pe;
    if (correct) {
      if (e.conf < 3) ++e.conf;
      if (e.useful < 3) ++e.useful;
    } else {
      if (e.conf > 0) --e.conf;
      if (e.conf == 0) e.target = target;
      if (e.useful > 0) --e.useful;
    }
  }
  base = target;

  if (!correct) {
    // Allocate in a longer-history table.
    for (usize t = static_cast<usize>(provider + 1); t < keys_.size(); ++t) {
      Entry& e = tables_[keys_[t].entry];
      if (e.useful == 0) {
        e = {.target = target, .tag = keys_[t].tag, .conf = 1, .useful = 0};
        break;
      }
      if (e.useful > 0) --e.useful;
    }
  }

  // Push two folded target bits into the path history (folding ensures
  // distinct targets contribute distinct history even when their low bits
  // coincide, e.g. page-aligned jump tables).
  const u64 folded = fold_bits(target >> 3, 2);
  history_.push(folded & 1);
  history_.push((folded >> 1) & 1);
}

u64 ItTage::digest() const {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (Addr a : base_) mix(a);
  for (const Entry& e : tables_) {
    mix(e.target);
    mix(e.tag);
    mix(e.conf);
    mix(e.useful);
  }
  mix(history_.digest());
  return h;
}

void ItTage::reset() {
  base_.assign(base_.size(), 0);
  tables_.assign(tables_.size(), Entry{});
  history_.reset();
  lookups_ = mispredicts_ = 0;
  have_last_ = false;
}

}  // namespace sempe::branch
