#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/main_memory.h"
#include "mem/prefetcher.h"
#include "mem/scratchpad.h"
#include "util/rng.h"

namespace sempe::mem {
namespace {

TEST(MainMemory, ZeroInitializedAndSparse) {
  MainMemory m;
  EXPECT_EQ(m.read_u64(0x123456789), 0u);
  EXPECT_EQ(m.num_touched_pages(), 0u);
  m.write_u64(0x1000, 0xdeadbeef);
  EXPECT_EQ(m.read_u64(0x1000), 0xdeadbeefull);
  EXPECT_EQ(m.num_touched_pages(), 1u);
}

TEST(MainMemory, SubWordAccess) {
  MainMemory m;
  m.write(0x10, 0xaabbccdd, 4);
  EXPECT_EQ(m.read(0x10, 4), 0xaabbccddull);
  EXPECT_EQ(m.read_u8(0x10), 0xdd);
  EXPECT_EQ(m.read_u8(0x13), 0xaa);
  EXPECT_EQ(m.read(0x12, 2), 0xaabbull);
}

TEST(MainMemory, CrossPageAccess) {
  MainMemory m;
  const Addr edge = MainMemory::kPageSize - 4;
  m.write_u64(edge, 0x1122334455667788ull);
  EXPECT_EQ(m.read_u64(edge), 0x1122334455667788ull);
  EXPECT_EQ(m.num_touched_pages(), 2u);
}

// MainMemory against a byte-map model: a seeded stream of 1-8 byte reads
// and writes clustered on page edges (the address space's top edge
// included, where an access wraps to address 0), write_bytes spans over
// several pages, and reset() mid-stream.
TEST(MainMemory, MatchesByteMapModel) {
  constexpr Addr kPage = MainMemory::kPageSize;
  const Addr kEdges[] = {0, kPage, 5 * kPage, 0x7fff'0000, 1ull << 63};
  MainMemory m;
  std::map<Addr, u8> model;
  auto model_read = [&](Addr a, usize size) {
    u64 v = 0;
    for (usize i = 0; i < size; ++i) {
      auto it = model.find(a + i);
      if (it != model.end()) v |= static_cast<u64>(it->second) << (8 * i);
    }
    return v;
  };
  Rng rng(0x3e3e);
  usize accesses = 0, crossing = 0;
  std::vector<Addr> written_before_reset;
  constexpr usize kOps = 20000;
  for (usize op = 0; op < kOps; ++op) {
    if (op == kOps / 2) {
      for (const auto& [a, b] : model) written_before_reset.push_back(a);
      m.reset();
      model.clear();
      // Untouched again: every byte written before reset() reads as zero.
      for (Addr a : written_before_reset) ASSERT_EQ(m.read_u8(a), 0u) << a;
      ASSERT_EQ(m.num_touched_pages(), 0u);
    }
    const Addr edge = kEdges[rng.next_below(std::size(kEdges))];
    const Addr a = edge + static_cast<Addr>(rng.next_in(-8, 1));
    const usize choice = rng.next_below(100);
    if (choice < 2) {
      // A span over up to three page boundaries.
      std::vector<u8> bytes(rng.next_in(1, 3 * kPage + 16));
      for (u8& b : bytes) b = static_cast<u8>(rng.next_u64());
      const Addr start = a - static_cast<Addr>(rng.next_below(kPage));
      m.write_bytes(start, bytes.data(), bytes.size());
      for (usize i = 0; i < bytes.size(); ++i) model[start + i] = bytes[i];
      for (usize i = 0; i < bytes.size(); ++i)
        ASSERT_EQ(m.read_u8(start + i), bytes[i]) << start + i;
      continue;
    }
    const usize size = 1 + rng.next_below(8);
    ++accesses;
    if ((a & (kPage - 1)) + size > kPage) ++crossing;
    if (choice < 51) {
      const u64 v = rng.next_u64();
      m.write(a, v, size);
      for (usize i = 0; i < size; ++i)
        model[a + i] = static_cast<u8>(v >> (8 * i));
    } else {
      ASSERT_EQ(m.read(a, size), model_read(a, size))
          << "op " << op << " addr " << a << " size " << size;
    }
  }
  // The stream exercises both the one-lookup and the byte-loop paths.
  EXPECT_GT(crossing * 4, accesses);
  EXPECT_LT(crossing * 2, accesses);
  // After the stream, every byte the model holds is in memory.
  for (const auto& [a, b] : model) ASSERT_EQ(m.read_u8(a), b) << a;
}

// reset() must drop the last-page cache: the cached page is back on the
// free pool, so a write through it would be lost and would alias the next
// page taken from the pool.
TEST(MainMemory, ResetDropsTheCachedPage) {
  MainMemory m;
  m.write_u64(0x1000, 1);
  EXPECT_EQ(m.read_u64(0x1000), 1u);  // 0x1000's page is now cached
  m.reset();
  EXPECT_EQ(m.read_u64(0x1000), 0u);
  m.write_u64(0x1000, 2);
  EXPECT_EQ(m.num_touched_pages(), 1u);
  m.write_u64(0x9000, 3);  // takes a page from the free pool
  EXPECT_EQ(m.read_u64(0x1000), 2u);
  EXPECT_EQ(m.read_u64(0x9000), 3u);
  EXPECT_EQ(m.num_touched_pages(), 2u);
}

TEST(MainMemory, ReadsOfUnwrittenPagesAllocateNothing) {
  MainMemory m;
  m.write_u8(0x1000, 7);
  EXPECT_EQ(m.read_u64(0x5000), 0u);
  EXPECT_EQ(m.read(0x1ffc, 8), 0u);  // crosses into an unwritten page
  EXPECT_EQ(m.read_u8(0x1000), 7u);
  EXPECT_EQ(m.num_touched_pages(), 1u);
}

// A direct-from-definition LRU cache: set and tag by division, one deque
// of tags per set, most recently used at the back.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : line_(cfg.line_bytes),
        assoc_(cfg.assoc),
        sets_(cfg.size_bytes / cfg.line_bytes / cfg.assoc),
        ways_(sets_) {}

  struct Way {
    u64 tag;
    bool dirty;
  };

  CacheAccessResult access(Addr a, bool is_write) {
    std::deque<Way>& set = ways_[set_of(a)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->tag == tag_of(a)) {
        Way w = *it;
        w.dirty |= is_write;
        set.erase(it);
        set.push_back(w);
        return {.hit = true};
      }
    }
    CacheAccessResult r;
    if (set.size() == assoc_) {
      const Way victim = set.front();
      set.pop_front();
      if (victim.dirty) {
        r.writeback = true;
        r.victim_line = (victim.tag * sets_ + set_of(a)) * line_;
      }
    }
    set.push_back({tag_of(a), is_write});
    return r;
  }

  bool probe(Addr a) const {
    for (const Way& w : ways_[set_of(a)])
      if (w.tag == tag_of(a)) return true;
    return false;
  }

 private:
  usize set_of(Addr a) const { return (a / line_) % sets_; }
  u64 tag_of(Addr a) const { return a / line_ / sets_; }

  u64 line_, assoc_, sets_;
  std::vector<std::deque<Way>> ways_;
};

// The shift-and-mask cache against the division formulas, over line sizes
// 16/64/128 x associativity 1/2/8: the same hits, the same dirty victims
// (whose victim_line round-trips to the evicted line's address), and the
// same probe answers, on addresses spread over the whole 64-bit space.
TEST(Cache, GeometryMatchesDivisionFormula) {
  for (usize line : {16, 64, 128}) {
    for (usize assoc : {1, 2, 8}) {
      const CacheConfig cfg{.name = "g", .size_bytes = 16 * line * assoc,
                            .assoc = assoc, .line_bytes = line};
      Cache c(cfg);
      ReferenceCache ref(cfg);
      Rng rng(line * 131 + assoc);
      usize writebacks = 0;
      for (usize i = 0; i < 20000; ++i) {
        // Mostly a small footprint (conflicts), sometimes a far address
        // whose tag uses the high bits.
        Addr a = rng.next_below(64 * line * assoc);
        if (rng.next_below(8) == 0) a |= rng.next_u64() & ~0xffffull;
        const bool is_write = rng.next_bool();
        const CacheAccessResult got = c.access(a, is_write);
        const CacheAccessResult want = ref.access(a, is_write);
        ASSERT_EQ(got.hit, want.hit) << line << "/" << assoc << " @" << i;
        ASSERT_EQ(got.writeback, want.writeback) << line << "/" << assoc;
        if (got.writeback) {
          ++writebacks;
          ASSERT_EQ(got.victim_line, want.victim_line) << line << "/" << assoc;
          ASSERT_EQ(c.line_of(got.victim_line), got.victim_line);
          ASSERT_FALSE(c.probe(got.victim_line));
        }
        const Addr q = rng.next_bool() ? a + line * 16
                                       : rng.next_below(64 * line * assoc);
        ASSERT_EQ(c.probe(q), ref.probe(q)) << line << "/" << assoc;
      }
      EXPECT_GT(writebacks, 0u) << line << "/" << assoc;
    }
  }
}

TEST(Cache, HitAfterMiss) {
  Cache c({.name = "t", .size_bytes = 1024, .assoc = 2, .line_bytes = 64});
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x13f, false).hit);   // same line
  EXPECT_FALSE(c.access(0x140, false).hit);  // next line
  EXPECT_EQ(c.demand_accesses(), 4u);
  EXPECT_EQ(c.demand_misses(), 2u);
}

TEST(Cache, LruEviction) {
  // 2 sets x 2 ways, 64B lines: addresses mapping to set 0 are multiples of
  // 128.
  Cache c({.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64});
  c.access(0 * 128, false);
  c.access(1 * 128, false);
  c.access(0 * 128, false);      // touch 0 -> 128 is LRU
  c.access(2 * 128, false);      // evicts 128
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(128));
  EXPECT_TRUE(c.probe(256));
}

TEST(Cache, DirtyWriteback) {
  Cache c({.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64});
  c.access(0 * 128, true);  // dirty
  c.access(1 * 128, false);
  c.access(2 * 128, false);  // evicts dirty line 0
  // Find which access produced a writeback by repeating deterministically.
  Cache d({.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64});
  d.access(0, true);
  d.access(128, false);
  const auto r = d.access(256, false);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0u);
}

TEST(Cache, PrefetchFillDoesNotCountDemand) {
  Cache c({.name = "t", .size_bytes = 1024, .assoc = 2, .line_bytes = 64});
  EXPECT_TRUE(c.prefetch_fill(0x200));
  EXPECT_FALSE(c.prefetch_fill(0x200));  // already present
  EXPECT_EQ(c.demand_accesses(), 0u);
  EXPECT_TRUE(c.access(0x200, false).hit);  // prefetched line hits
}

TEST(Cache, FlushEmptiesContents) {
  Cache c({.name = "t", .size_bytes = 1024, .assoc = 2, .line_bytes = 64});
  c.access(0x40, false);
  c.flush();
  EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, ConfigValidation) {
  EXPECT_THROW(Cache({.size_bytes = 1000, .assoc = 3, .line_bytes = 60}),
               SimError);
}

TEST(StridePrefetcher, DetectsConstantStride) {
  StridePrefetcher p;
  const Addr pc = 0x400;
  EXPECT_TRUE(p.observe(pc, 1000).empty());   // learn
  EXPECT_TRUE(p.observe(pc, 1064).empty());   // stride 64, conf 1
  EXPECT_TRUE(p.observe(pc, 1128).empty());   // conf 2 -> next triggers
  const auto v = p.observe(pc, 1192);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1256u);
}

TEST(StridePrefetcher, NoPrefetchOnIrregular) {
  StridePrefetcher p;
  const Addr pc = 0x400;
  p.observe(pc, 1000);
  p.observe(pc, 1064);
  p.observe(pc, 1000);
  p.observe(pc, 5000);
  EXPECT_TRUE(p.observe(pc, 123).empty());
}

TEST(StreamPrefetcher, ConfirmsAscendingMissStream) {
  StreamPrefetcher p({.num_streams = 4, .depth = 2, .line_bytes = 64});
  EXPECT_TRUE(p.observe_miss(0x1000).empty());  // allocates stream
  const auto v = p.observe_miss(0x1040);        // confirms
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0x1080u);
  EXPECT_EQ(v[1], 0x10c0u);
}

TEST(StreamPrefetcher, IndependentStreams) {
  StreamPrefetcher p({.num_streams = 4, .depth = 1, .line_bytes = 64});
  p.observe_miss(0x1000);
  p.observe_miss(0x8000);
  EXPECT_FALSE(p.observe_miss(0x1040).empty());
  EXPECT_FALSE(p.observe_miss(0x8040).empty());
}

// Strides and targets wrap in u64: training on addresses at opposite ends
// of the address space must not overflow an i64 difference (undefined
// behaviour, which the sanitizer build reports).
TEST(StridePrefetcher, StrideWrapsAcrossTheAddressSpace) {
  StridePrefetcher p;
  const Addr pc = 0x400;
  const Addr step = 1ull << 63;  // +2^63 and -2^63 are the same u64 step
  p.observe(pc, 0x128);
  p.observe(pc, 0x128 + step);
  p.observe(pc, 0x128);
  const auto v = p.observe(pc, 0x128 + step);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 0x128u);
  // A huge negative stride, stepping down through address 0.
  StridePrefetcher q;
  const Addr far = 0x7fff'ffff'ffff'fe00;
  for (Addr a : {Addr{0x100}, 0x100 - far, 0x100 - 2 * far}) q.observe(pc, a);
  const auto w = q.observe(pc, 0x100 - 3 * far);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 0x100 - 4 * far);
}

// The returned views share one buffer per prefetcher: a call's result
// must hold only that call's addresses, never the previous call's.
TEST(StridePrefetcher, ResultIndependentOfPreviousCall) {
  StridePrefetcher p({.table_entries = 256, .degree = 3});
  const Addr pc = 0x400;
  for (Addr a = 1000; a < 1000 + 4 * 64; a += 64) p.observe(pc, a);
  const auto hot = p.observe(pc, 1256);
  ASSERT_EQ(std::vector<Addr>(hot.begin(), hot.end()),
            (std::vector<Addr>{1320, 1384, 1448}));
  EXPECT_TRUE(p.observe(0x800, 5000).empty());  // new PC: learns only
  const auto again = p.observe(pc, 1320);
  EXPECT_EQ(std::vector<Addr>(again.begin(), again.end()),
            (std::vector<Addr>{1384, 1448, 1512}));
}

TEST(StreamPrefetcher, ResultIndependentOfPreviousCall) {
  StreamPrefetcher p({.num_streams = 4, .depth = 3, .line_bytes = 64});
  p.observe_miss(0x1000);
  const auto run = p.observe_miss(0x1040);
  ASSERT_EQ(std::vector<Addr>(run.begin(), run.end()),
            (std::vector<Addr>{0x1080, 0x10c0, 0x1100}));
  EXPECT_TRUE(p.observe_miss(0x9000).empty());  // allocates a new stream
  const auto next = p.observe_miss(0x9040);
  EXPECT_EQ(std::vector<Addr>(next.begin(), next.end()),
            (std::vector<Addr>{0x9080, 0x90c0, 0x9100}));
}

TEST(Hierarchy, LatencyComposition) {
  HierarchyConfig cfg;
  cfg.enable_prefetchers = false;
  Hierarchy h(cfg);
  // Cold: DL1 miss + L2 miss + DRAM.
  const Cycle cold = h.access_data(0x10000, false, 0x400);
  EXPECT_EQ(cold, cfg.dl1_hit_latency + cfg.l2_hit_latency + cfg.dram_latency);
  // Warm: DL1 hit.
  const Cycle warm = h.access_data(0x10000, false, 0x400);
  EXPECT_EQ(warm, cfg.dl1_hit_latency);
}

TEST(Hierarchy, L2HitAfterDl1Eviction) {
  HierarchyConfig cfg;
  cfg.enable_prefetchers = false;
  cfg.dl1 = {.name = "DL1", .size_bytes = 128, .assoc = 1, .line_bytes = 64};
  Hierarchy h(cfg);
  h.access_data(0x0, false, 1);     // line A in DL1+L2
  h.access_data(0x80, false, 1);    // maps to same DL1 set, evicts A
  const Cycle lat = h.access_data(0x0, false, 1);  // DL1 miss, L2 hit
  EXPECT_EQ(lat, cfg.dl1_hit_latency + cfg.l2_hit_latency);
}

TEST(Hierarchy, InstructionPathSeparateFromData) {
  HierarchyConfig cfg;
  cfg.enable_prefetchers = false;
  Hierarchy h(cfg);
  h.access_instr(0x10000);
  EXPECT_EQ(h.il1().demand_accesses(), 1u);
  EXPECT_EQ(h.dl1().demand_accesses(), 0u);
  // Second fetch of the same line hits.
  EXPECT_EQ(h.access_instr(0x10008), cfg.il1_hit_latency);
}

TEST(Hierarchy, StridePrefetchHidesArrayWalkMisses) {
  HierarchyConfig with;
  HierarchyConfig without = with;
  without.enable_prefetchers = false;
  Hierarchy hp(with);
  Hierarchy hn(without);
  const Addr pc = 0x444;
  u64 miss_p = 0, miss_n = 0;
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    hp.access_data(a, false, pc);
    hn.access_data(a, false, pc);
  }
  miss_p = hp.dl1().demand_misses();
  miss_n = hn.dl1().demand_misses();
  EXPECT_LT(miss_p, miss_n);  // prefetching removes most walk misses
}

TEST(Scratchpad, TransferCyclesCeiling) {
  Scratchpad s;
  EXPECT_EQ(s.transfer_cycles(0), 0u);
  EXPECT_EQ(s.transfer_cycles(1), 1u);
  EXPECT_EQ(s.transfer_cycles(64), 1u);
  EXPECT_EQ(s.transfer_cycles(65), 2u);
  EXPECT_EQ(s.transfer_cycles(384), 6u);
}

TEST(Scratchpad, SnapshotSizingMatchesPaperScale) {
  Scratchpad s;
  // 48 regs: 2 states (768B) + 2 bit-vectors (16B) = 784 bytes per slot.
  EXPECT_EQ(s.snapshot_slot_bytes(48), 784u);
  EXPECT_TRUE(s.fits(30, 48));   // Table II: 30 snapshots supported
  EXPECT_FALSE(s.fits(31, 48));  // capped by max_snapshots
}

}  // namespace
}  // namespace sempe::mem
