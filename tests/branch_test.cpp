#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "branch/btb_ras.h"
#include "branch/history.h"
#include "branch/ittage.h"
#include "branch/tage.h"

namespace sempe::branch {
namespace {

struct Lcg {
  u64 s;
  u64 next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

TEST(GlobalHistory, FoldAndDigestChangeWithContent) {
  GlobalHistory h(64);
  const usize slot = h.add_fold(40, 7);
  const u64 d0 = h.digest();
  h.push(true);
  EXPECT_NE(h.digest(), d0);
  // A fold is bounded by out_bits.
  EXPECT_LT(h.fold(slot), 1ull << 7);
}

TEST(GlobalHistory, ResetRestoresInitialDigest) {
  GlobalHistory h(64);
  const u64 d0 = h.digest();
  for (int i = 0; i < 10; ++i) h.push(i % 2 == 0);
  h.reset();
  EXPECT_EQ(h.digest(), d0);
}

// Every slot equals the bit-by-bit reference fold after each push and
// after reset(), across register sizes and the edge lengths of each width:
// 1, out_bits - 1, out_bits, a non-multiple of out_bits, the full register.
TEST(GlobalHistory, FoldSlotsMatchEagerFold) {
  for (const usize size : {usize{64}, usize{256}, usize{512}}) {
    GlobalHistory h(size);
    std::vector<std::pair<usize, u32>> folds;
    for (const u32 ob : {1u, 2u, 7u, 10u, 11u, 64u})
      for (const usize len : {usize{1}, usize{ob} - 1, usize{ob},
                              usize{ob} * 3 + 2, size - 1, size})
        if (len >= 1 && len <= size) folds.emplace_back(len, ob);
    std::vector<usize> slots;
    for (const auto& [len, ob] : folds) slots.push_back(h.add_fold(len, ob));

    auto matches = [&](const char* when, int step) {
      for (usize k = 0; k < folds.size(); ++k) {
        const auto [len, ob] = folds[k];
        if (h.fold(slots[k]) != h.fold_eager(len, ob)) {
          ADD_FAILURE() << "size " << size << " len " << len << " out_bits "
                        << ob << " " << when << " " << step;
          return false;
        }
      }
      return true;
    };
    Lcg rng{size};
    bool ok = true;
    for (int i = 0; ok && i < 10000; ++i) {
      h.push(((rng.next() >> 7) & 1) != 0);
      if (i == 5000) {  // a slot registered mid-stream is seeded, then kept
        folds.emplace_back(size / 2 + 3, 5);
        slots.push_back(h.add_fold(size / 2 + 3, 5));
      }
      ok = matches("after push", i);
    }
    h.reset();
    if (ok) matches("after reset", 0);
  }
}

TEST(GlobalHistory, IdenticalFoldsShareASlot) {
  GlobalHistory h(64);
  const usize a = h.add_fold(19, 11);
  EXPECT_EQ(h.add_fold(19, 11), a);
  EXPECT_NE(h.add_fold(19, 10), a);
  EXPECT_NE(h.add_fold(20, 11), a);
}

TEST(GlobalHistory, RejectsMalformedSizes) {
  EXPECT_THROW(GlobalHistory(100), SimError);  // not a power of two
  GlobalHistory h(64);
  EXPECT_THROW(h.add_fold(0, 8), SimError);
  EXPECT_THROW(h.add_fold(65, 8), SimError);
  EXPECT_THROW(h.add_fold(8, 0), SimError);
  EXPECT_THROW(h.add_fold(8, 65), SimError);
}

TEST(Tage, LearnsAlwaysTaken) {
  Tage t;
  const Addr pc = 0x1000;
  for (int i = 0; i < 50; ++i) {
    t.predict(pc);
    t.update(pc, true);
  }
  EXPECT_TRUE(t.predict(pc));
  t.update(pc, true);
  // After warmup the mispredict rate must be very low.
  EXPECT_LT(t.mispredict_rate(), 0.2);
}

TEST(Tage, LearnsAlternatingPattern) {
  // T,NT,T,NT... requires history; bimodal alone cannot learn it.
  Tage t;
  const Addr pc = 0x2000;
  u64 wrong_late = 0;
  for (int i = 0; i < 400; ++i) {
    const bool actual = (i % 2) == 0;
    const bool pred = t.predict(pc);
    if (i >= 300 && pred != actual) ++wrong_late;
    t.update(pc, actual);
  }
  EXPECT_LE(wrong_late, 10u);  // tagged tables capture the pattern
}

TEST(Tage, LearnsLoopExitPattern) {
  // 7 taken, 1 not-taken, repeated: a predictor with history should get the
  // exit right most of the time after warmup.
  Tage t;
  const Addr pc = 0x3000;
  u64 wrong_late = 0;
  for (int i = 0; i < 1600; ++i) {
    const bool actual = (i % 8) != 7;
    const bool pred = t.predict(pc);
    if (i >= 1200 && pred != actual) ++wrong_late;
    t.update(pc, actual);
  }
  EXPECT_LT(wrong_late, 40u);
}

TEST(Tage, DigestReflectsState) {
  Tage a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.predict(0x1234);
  a.update(0x1234, true);
  EXPECT_NE(a.digest(), b.digest());
  a.reset();
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Tage, NoteUnconditionalAdvancesHistoryOnly) {
  Tage a, b;
  a.note_unconditional(0x10);
  EXPECT_NE(a.digest(), b.digest());  // history moved
  EXPECT_EQ(a.lookups(), 0u);         // but no prediction made
}

TEST(ItTage, LearnsStableTarget) {
  ItTage t;
  const Addr pc = 0x5000;
  for (int i = 0; i < 20; ++i) t.update(pc, 0x9000);
  EXPECT_EQ(t.predict(pc), 0x9000u);
}

TEST(ItTage, HistoryCorrelatedTargets) {
  // Target alternates in a pattern correlated with preceding targets.
  ItTage t;
  const Addr pc = 0x6000;
  u64 wrong_late = 0;
  for (int i = 0; i < 600; ++i) {
    const Addr target = (i % 2) ? 0xa000 : 0xb000;
    const Addr pred = t.predict(pc);
    if (i >= 500 && pred != target) ++wrong_late;
    t.update(pc, target);
  }
  EXPECT_LT(wrong_late, 20u);
}

TEST(ItTage, DigestTracksState) {
  ItTage a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.update(0x77, 0x88);
  EXPECT_NE(a.digest(), b.digest());
}

// Fixed branch streams for the predictor pins. Outcomes and targets are
// functions of the stream's own recent history, with a little LCG noise,
// so the tagged tables hit, allocate and decay.
struct PredictorPin {
  u64 digest;
  u64 lookups;
  u64 mispredicts;
};

// 120k steps over 48 branch sites: about one step in 13 is an
// unconditional jump, one branch in 97 is trained without a predict().
PredictorPin drive_tage() {
  Tage t;
  Lcg rng{1};
  u64 hist = 0;  // the stream's outcomes, most recent in bit 0
  for (int i = 0; i < 120000; ++i) {
    const u64 r = rng.next();
    // Mostly a loop over the sites, with the odd random detour.
    const u64 site = (r >> 24) % 8 == 0 ? r % 48 : static_cast<u64>(i) % 48;
    const Addr pc = 0x4000 + site * 0x28;
    if ((r >> 6) % 13 == 0) {
      t.note_unconditional(pc + 4);
      hist = (hist << 1) | 1;
      continue;
    }
    bool taken = (((hist >> (site % 3)) ^ (hist >> 3) ^ site) & 1) != 0;
    if ((r >> 12) % 32 == 0) taken = !taken;
    if ((r >> 18) % 97 != 0) t.predict(pc);
    t.update(pc, taken);
    hist = (hist << 1) | (taken ? 1 : 0);
  }
  return {t.digest(), t.lookups(), t.mispredicts()};
}

// 100k indirect jumps over 12 sites and 6 targets (two page-aligned); one
// jump in 53 is trained without a predict().
PredictorPin drive_ittage() {
  const Addr kTargets[] = {0x10000, 0x10040, 0x20000,
                           0x21000, 0x31008, 0x40010};
  ItTage t;
  Lcg rng{2};
  u64 path = 0;  // the stream's recent target indices, 3 bits each
  for (int i = 0; i < 100000; ++i) {
    const u64 r = rng.next();
    const u64 site = (r >> 24) % 8 == 0 ? r % 12 : static_cast<u64>(i) % 12;
    const Addr pc = 0x8000 + site * 0x18;
    u64 idx = ((path & 7) + site) % 6;
    if ((r >> 10) % 16 == 0) idx = (r >> 14) % 6;
    if ((r >> 20) % 53 != 0) t.predict(pc);
    t.update(pc, kTargets[idx]);
    path = ((path << 3) | idx) & 0xfff;
  }
  return {t.digest(), t.lookups(), t.mispredicts()};
}

// Recorded before the fold slots and flat tables; never regenerate them.
TEST(PredictorPins, TageKeepsItsState) {
  const PredictorPin p = drive_tage();
  EXPECT_EQ(p.digest, 0xfe7dd07f9f17ae19ull);
  EXPECT_EQ(p.lookups, 109538u);
  EXPECT_EQ(p.mispredicts, 21120u);
}

TEST(PredictorPins, ItTageKeepsItsState) {
  const PredictorPin p = drive_ittage();
  EXPECT_EQ(p.digest, 0x7396a0334c053166ull);
  EXPECT_EQ(p.lookups, 98135u);
  EXPECT_EQ(p.mispredicts, 48161u);
}

// The widest tags and the shortest and longest histories the registers
// allow; pipeline_test's MalformedPredictor covers one step past each.
TEST(Tage, AcceptsBoundaryConfigs) {
  TageConfig cfg;
  cfg.tag_bits = 16;
  cfg.history_lengths = {1, 512};
  EXPECT_NO_THROW(Tage{cfg});
  cfg.tag_bits = 2;
  EXPECT_NO_THROW(Tage{cfg});
}

TEST(ItTage, AcceptsBoundaryConfigs) {
  ItTageConfig cfg;
  cfg.tag_bits = 16;
  cfg.history_lengths = {1, 256};
  EXPECT_NO_THROW(ItTage{cfg});
  cfg.tag_bits = 1;
  EXPECT_NO_THROW(ItTage{cfg});
}

TEST(Btb, InsertLookup) {
  Btb btb(256);
  EXPECT_EQ(btb.lookup(0x100), 0u);
  btb.insert(0x100, 0x500);
  EXPECT_EQ(btb.lookup(0x100), 0x500u);
  // Aliasing entry replaces.
  btb.insert(0x100 + 256 * 8, 0x900);
  EXPECT_EQ(btb.lookup(0x100), 0u);
}

TEST(Ras, PushPopNesting) {
  ReturnAddressStack ras(4);
  ras.push(0x10);
  ras.push(0x20);
  EXPECT_EQ(ras.pop(), 0x20u);
  EXPECT_EQ(ras.pop(), 0x10u);
  EXPECT_EQ(ras.pop(), 0u);  // empty
}

TEST(Ras, DepthBounded) {
  ReturnAddressStack ras(2);
  ras.push(1);
  ras.push(2);
  ras.push(3);  // overflows, drops oldest
  EXPECT_EQ(ras.size(), 2u);
  EXPECT_EQ(ras.pop(), 3u);
  EXPECT_EQ(ras.pop(), 2u);
}


// The ring against a vector model that drops its oldest entry at full
// depth: same pops, same size, same bottom-to-top digest.
TEST(Ras, RingMatchesVectorModel) {
  const usize depth = 5;
  ReturnAddressStack ras(depth);
  std::vector<Addr> model;
  auto model_digest = [&model] {
    u64 h = 1469598103934665603ull;
    for (Addr a : model) {
      h ^= a;
      h *= 1099511628211ull;
    }
    return h;
  };
  Lcg rng{7};
  for (int i = 0; i < 2000; ++i) {
    const u64 r = rng.next();
    if (r % 5 < 3) {
      const Addr a = 0x100 + 4 * static_cast<Addr>(i);
      if (model.size() == depth) model.erase(model.begin());
      model.push_back(a);
      ras.push(a);
    } else {
      Addr expect = 0;
      if (!model.empty()) {
        expect = model.back();
        model.pop_back();
      }
      ASSERT_EQ(ras.pop(), expect) << "step " << i;
    }
    ASSERT_EQ(ras.size(), model.size()) << "step " << i;
    ASSERT_EQ(ras.digest(), model_digest()) << "step " << i;
  }
  ras.reset();
  EXPECT_EQ(ras.size(), 0u);
  EXPECT_EQ(ras.pop(), 0u);
}

}  // namespace
}  // namespace sempe::branch
