#include "mem/prefetcher.h"

#include "util/check.h"

namespace sempe::mem {

StridePrefetcher::StridePrefetcher(const Config& cfg) : cfg_(cfg) {
  SEMPE_CHECK(cfg.table_entries > 0);
  table_.resize(cfg.table_entries);
  out_.reserve(cfg.degree);
}

std::span<const Addr> StridePrefetcher::observe(Addr pc, Addr addr) {
  Entry& e = table_[(pc >> 3) % table_.size()];
  out_.clear();
  if (e.valid && e.pc_tag == pc) {
    // Wrapping u64 arithmetic: addresses a full i64 range apart would
    // overflow an i64 difference (UB); the two agree everywhere else.
    const i64 stride = static_cast<i64>(addr - e.last_addr);
    if (stride != 0 && stride == e.stride) {
      if (e.confidence < 3) ++e.confidence;
    } else {
      e.stride = stride;
      e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
    }
    e.last_addr = addr;
    if (e.confidence >= 2 && e.stride != 0) {
      Addr target = addr;
      for (usize d = 0; d < cfg_.degree; ++d) {
        target += static_cast<Addr>(e.stride);
        out_.push_back(target);
      }
      issued_ += out_.size();
    }
  } else {
    e = {.valid = true, .pc_tag = pc, .last_addr = addr, .stride = 0,
         .confidence = 0};
  }
  return out_;
}

void StridePrefetcher::reset() {
  for (Entry& e : table_) e = Entry{};
  issued_ = 0;
}

StreamPrefetcher::StreamPrefetcher(const Config& cfg) : cfg_(cfg) {
  SEMPE_CHECK(cfg.num_streams > 0);
  streams_.resize(cfg.num_streams);
  out_.reserve(cfg.depth);
}

std::span<const Addr> StreamPrefetcher::observe_miss(Addr addr) {
  const Addr line = addr & ~static_cast<Addr>(cfg_.line_bytes - 1);
  out_.clear();

  // Continuing an existing stream?
  for (Stream& s : streams_) {
    if (s.valid && line == s.next_line) {
      s.last_use = ++use_clock_;
      if (!s.confirmed) {
        s.confirmed = true;
      }
      s.next_line = line + cfg_.line_bytes;
      // Run ahead: prefetch the next `depth` lines.
      for (usize d = 1; d <= cfg_.depth; ++d)
        out_.push_back(line + d * cfg_.line_bytes);
      issued_ += out_.size();
      return out_;
    }
  }

  // Allocate a new tentative stream on the LRU slot.
  Stream* victim = &streams_[0];
  for (Stream& s : streams_) {
    if (!s.valid) {
      victim = &s;
      break;
    }
    if (s.last_use < victim->last_use) victim = &s;
  }
  *victim = {.valid = true, .confirmed = false,
             .next_line = line + cfg_.line_bytes, .last_use = ++use_clock_};
  return out_;
}

void StreamPrefetcher::reset() {
  for (Stream& s : streams_) s = Stream{};
  use_clock_ = 0;
  issued_ = 0;
}

}  // namespace sempe::mem
