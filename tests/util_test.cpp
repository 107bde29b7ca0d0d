#include <gtest/gtest.h>

#include <limits>

#include "util/bits.h"
#include "util/check.h"
#include "util/fixed_lifo.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sempe {
namespace {

TEST(Bits, PowerOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(6));
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_floor(~0ull), 63u);
}

TEST(Bits, Log2FloorZeroIsRejected) {
  // Regression: log2_floor(0) used to evaluate 63u - 64, wrapping to a
  // nonsense bit index instead of failing.
  EXPECT_THROW(log2_floor(0), SimError);
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(0), 0ull);
  EXPECT_EQ(low_mask(1), 1ull);
  EXPECT_EQ(low_mask(8), 0xffull);
  EXPECT_EQ(low_mask(64), ~0ull);
}

TEST(Bits, ExtractInsertRoundTrip) {
  const u64 x = 0xdeadbeefcafebabeull;
  for (u32 lo : {0u, 7u, 32u, 50u}) {
    const u64 v = bits_of(x, lo, 10);
    const u64 y = bits_set(0, lo, 10, v);
    EXPECT_EQ(bits_of(y, lo, 10), v);
  }
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0x7f, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xff, 8), -1);
  EXPECT_EQ(sign_extend(0xffffffffull, 32), -1);
  EXPECT_EQ(sign_extend(5, 32), 5);
}

TEST(Bits, FoldBits) {
  EXPECT_EQ(fold_bits(0, 8), 0ull);
  // Folding is an xor of 8-bit chunks.
  EXPECT_EQ(fold_bits(0x0102ull, 8), 0x01ull ^ 0x02ull);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const i64 v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZeroSeedDoesNotStick) {
  Rng r(0);
  EXPECT_NE(r.next_u64(), 0u);
}

TEST(Rng, NextInWideRangesDoNotOverflow) {
  // Regression: `hi - lo + 1` overflowed i64 for spans wider than 2^63 and
  // wrapped to 0 for the full range, feeding next_below() a zero bound.
  constexpr i64 kMin = std::numeric_limits<i64>::min();
  constexpr i64 kMax = std::numeric_limits<i64>::max();
  Rng r(11);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const i64 full = r.next_in(kMin, kMax);
    saw_negative = saw_negative || full < 0;
    saw_positive = saw_positive || full > 0;
    const i64 half = r.next_in(kMin, 0);
    EXPECT_LE(half, 0);
    const i64 wide = r.next_in(kMin + 1, kMax - 1);
    EXPECT_GE(wide, kMin + 1);
    EXPECT_LE(wide, kMax - 1);
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // Still deterministic for a given seed.
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.next_in(kMin, kMax), b.next_in(kMin, kMax));
}

TEST(Rng, NextInEmptyRangeIsRejected) {
  Rng r(1);
  EXPECT_THROW(r.next_in(5, 4), SimError);
}

TEST(FixedLifo, PushPopOrder) {
  FixedLifo<int> l(3);
  EXPECT_TRUE(l.empty());
  EXPECT_TRUE(l.push(1));
  EXPECT_TRUE(l.push(2));
  EXPECT_TRUE(l.push(3));
  EXPECT_TRUE(l.full());
  EXPECT_FALSE(l.push(4));  // overflow refused
  EXPECT_EQ(l.pop(), 3);
  EXPECT_EQ(l.pop(), 2);
  EXPECT_EQ(l.pop(), 1);
  EXPECT_TRUE(l.empty());
}

TEST(FixedLifo, TopAndAt) {
  FixedLifo<int> l(4);
  l.push(10);
  l.push(20);
  EXPECT_EQ(l.top(), 20);
  EXPECT_EQ(l.at(0), 10);
  EXPECT_EQ(l.at(1), 20);
}

TEST(FixedLifo, PopEmptyThrows) {
  FixedLifo<int> l(1);
  EXPECT_THROW(l.pop(), SimError);
  EXPECT_THROW(l.top(), SimError);
}

TEST(Stats, CountersAndRatios) {
  StatSet s;
  s.add("hits", 3);
  s.add("hits");
  s.add("total", 8);
  EXPECT_EQ(s.get("hits"), 4u);
  EXPECT_EQ(s.get("absent"), 0u);
  EXPECT_DOUBLE_EQ(s.ratio("hits", "total"), 0.5);
  EXPECT_DOUBLE_EQ(s.ratio("hits", "absent"), 0.0);
}

TEST(Stats, Merge) {
  StatSet a, b;
  a.add("x", 1);
  b.add("x", 2);
  b.add("y", 5);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("y"), 5u);
}

TEST(Stats, MergeTreatsGaugesByMaxNotSum) {
  // Regression: merge() used to sum gauge values written via set() — a
  // sweep that merged per-run "final occupancy" gauges reported the sum of
  // the occupancies, which is nonsense. Gauges now aggregate by max.
  StatSet a, b;
  a.add("accesses", 10);
  a.set("final_occupancy", 7);
  b.add("accesses", 5);
  b.set("final_occupancy", 4);
  a.merge(b);
  EXPECT_EQ(a.get("accesses"), 15u);        // counters still sum
  EXPECT_EQ(a.get("final_occupancy"), 7u);  // gauges take the max
  EXPECT_TRUE(a.is_gauge("final_occupancy"));
  EXPECT_FALSE(a.is_gauge("accesses"));

  // The gauge marking survives a merge in either direction: a set() on
  // only one side still merges by max, and a larger incoming gauge wins.
  StatSet c, d;
  c.add("high_water", 3);  // written as a counter here...
  d.set("high_water", 9);  // ...but the other side knows it is a gauge
  c.merge(d);
  EXPECT_EQ(c.get("high_water"), 9u);
  EXPECT_TRUE(c.is_gauge("high_water"));
}

TEST(Stats, SetOverwritesAndClearForgetsGauges) {
  StatSet s;
  s.set("g", 5);
  s.set("g", 2);
  EXPECT_EQ(s.get("g"), 2u);  // set() overwrites, never accumulates
  s.clear();
  EXPECT_FALSE(s.is_gauge("g"));
  s.add("g", 1);
  StatSet t;
  t.add("g", 2);
  s.merge(t);
  EXPECT_EQ(s.get("g"), 3u);  // after clear(), "g" is an ordinary counter
}

TEST(Bits, CheckedSubClampsInsteadOfWrapping) {
  // Regression guard for Pipeline::fetch_of: a fetch latency below the
  // IL1 hit latency must clamp the pipelined-hit subtraction to zero, not
  // wrap to ~2^64 (which deadlocked fetch by pushing line_ready_ past any
  // reachable cycle).
  EXPECT_EQ(checked_sub(10, 3), 7u);
  EXPECT_EQ(checked_sub(3, 3), 0u);
  EXPECT_EQ(checked_sub(2, 3), 0u);
  EXPECT_EQ(checked_sub(0, ~0ull), 0u);
}

TEST(Check, ThrowsWithMessage) {
  try {
    SEMPE_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, MessageNamesTheFileWithoutItsDirectory) {
  try {
    SEMPE_CHECK(1 + 1 == 3);
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util_test.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace sempe
