// Sparse byte-addressable main memory.
//
// Pages are allocated lazily and read as zero before first write, so
// workloads may use large address ranges without host-memory cost.
// reset() recycles page allocations into a free pool, which lets a sweep
// worker reuse one MainMemory across experiment points (sim/simulator.cpp)
// instead of re-allocating the working set per run.
//
// An access that stays inside one page costs one page lookup; only a
// page-crossing access goes byte by byte. A one-entry last-page cache sits
// in front of the page map, so a run of accesses to the same page skips
// the hash lookup too; reset() invalidates it. Because reads update that
// cache, a MainMemory is single-threaded, const reads included: every
// user owns its own (the thread-local scratch memory of sim/simulator.cpp
// and each co-resident tenant's memory).
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace sempe::mem {

class MainMemory {
 public:
  static constexpr usize kPageBits = 12;
  static constexpr usize kPageSize = 1ull << kPageBits;

  MainMemory() = default;
  // The last-page cache points into this object's page map.
  MainMemory(const MainMemory&) = delete;
  MainMemory& operator=(const MainMemory&) = delete;

  u8 read_u8(Addr a) const {
    const Page* p = find(a);
    return p ? (*p)[offset(a)] : 0;
  }
  void write_u8(Addr a, u8 v) { page(a)[offset(a)] = v; }

  u64 read(Addr a, usize size) const {
    SEMPE_CHECK(size >= 1 && size <= 8);
    u64 v = 0;
    if (offset(a) + size <= kPageSize) {
      const Page* p = find(a);
      if (p == nullptr) return 0;
      const u8* b = p->data() + offset(a);
      for (usize i = 0; i < size; ++i) v |= static_cast<u64>(b[i]) << (8 * i);
      return v;
    }
    for (usize i = 0; i < size; ++i)
      v |= static_cast<u64>(read_u8(a + i)) << (8 * i);
    return v;
  }
  void write(Addr a, u64 v, usize size) {
    SEMPE_CHECK(size >= 1 && size <= 8);
    if (offset(a) + size <= kPageSize) {
      u8* b = page(a).data() + offset(a);
      for (usize i = 0; i < size; ++i) b[i] = static_cast<u8>(v >> (8 * i));
      return;
    }
    for (usize i = 0; i < size; ++i) write_u8(a + i, static_cast<u8>(v >> (8 * i)));
  }

  u64 read_u64(Addr a) const { return read(a, 8); }
  void write_u64(Addr a, u64 v) { write(a, v, 8); }

  /// Copy n bytes to [a, a + n), one page chunk at a time.
  void write_bytes(Addr a, const u8* data, usize n) {
    while (n > 0) {
      const usize chunk = std::min(n, kPageSize - offset(a));
      std::memcpy(page(a).data() + offset(a), data, chunk);
      a += chunk;
      data += chunk;
      n -= chunk;
    }
  }

  usize num_touched_pages() const { return pages_.size(); }

  /// Forget all contents but keep the page allocations: every touched page
  /// is zeroed and parked on a free pool that page() draws from before
  /// asking the allocator. After reset() the memory reads as all-zero,
  /// exactly like a freshly constructed one.
  void reset() {
    for (auto& [idx, p] : pages_) {
      p->fill(0);
      free_pool_.push_back(std::move(p));
    }
    pages_.clear();
    last_index_ = kNoPage;
    last_page_ = nullptr;
  }

 private:
  using Page = std::array<u8, kPageSize>;

  /// No page index is this large (indices are Addr >> kPageBits).
  static constexpr u64 kNoPage = ~0ull;

  static usize offset(Addr a) { return static_cast<usize>(a & (kPageSize - 1)); }

  /// The page holding a, or nullptr if it was never written. Only pages
  /// that exist enter the last-page cache.
  const Page* find(Addr a) const {
    const u64 idx = a >> kPageBits;
    if (idx == last_index_) return last_page_;
    auto it = pages_.find(idx);
    if (it == pages_.end()) return nullptr;
    last_index_ = idx;
    last_page_ = it->second.get();
    return last_page_;
  }
  Page& page(Addr a) {
    const u64 idx = a >> kPageBits;
    if (idx == last_index_) return *last_page_;
    auto& p = pages_[idx];
    if (!p) {
      if (!free_pool_.empty()) {
        p = std::move(free_pool_.back());  // already zeroed by reset()
        free_pool_.pop_back();
      } else {
        p = std::make_unique<Page>(Page{});
      }
    }
    last_index_ = idx;
    last_page_ = p.get();
    return *p;
  }

  std::unordered_map<u64, std::unique_ptr<Page>> pages_;
  std::vector<std::unique_ptr<Page>> free_pool_;  // zeroed, ready for reuse
  // The last page found or created. Pages are heap-allocated and never
  // move, so the pointer stays valid until reset() clears the map.
  mutable u64 last_index_ = kNoPage;
  mutable Page* last_page_ = nullptr;
};

}  // namespace sempe::mem
