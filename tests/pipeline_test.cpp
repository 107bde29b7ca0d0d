#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "isa/program_builder.h"
#include "pipeline/pipeline.h"
#include "pipeline/width_limiter.h"
#include "sim/core.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe {
namespace {

using isa::ProgramBuilder;
using isa::Secure;
using pipeline::PipelineConfig;
using pipeline::PipelineStats;
using pipeline::WidthLimiter;

PipelineStats run_timed(ProgramBuilder& pb,
                        cpu::ExecMode mode = cpu::ExecMode::kLegacy,
                        PipelineConfig cfg = {}) {
  sim::RunConfig rc;
  rc.core.mode = mode;
  rc.pipe = cfg;
  rc.record_observations = false;
  auto prog = pb.build();
  return sim::run(prog, rc).stats;
}

TEST(WidthLimiterTest, RespectsWidthPerCycle) {
  WidthLimiter w(2);
  EXPECT_EQ(w.alloc(10), 10u);
  EXPECT_EQ(w.alloc(10), 10u);
  EXPECT_EQ(w.alloc(10), 11u);  // third request spills to the next cycle
  EXPECT_EQ(w.alloc(10), 11u);
  EXPECT_EQ(w.alloc(10), 12u);
}

TEST(WidthLimiterTest, PruneKeepsSemantics) {
  WidthLimiter w(1);
  w.alloc(5);
  w.prune(6);
  EXPECT_EQ(w.alloc(6), 6u);
  EXPECT_EQ(w.alloc(0), 7u);  // clamped to pruned base, slot 6 taken
}

TEST(WidthLimiterTest, MatchesReferenceModel) {
  // Differential against a map of per-cycle counts with the same contract:
  // a request below the pruned base is clamped up to it, then takes the
  // first cycle with a free slot. Requests wander below and above the base
  // and far ahead (growth); prune floors creep or leap past the ring's
  // capacity (wrap-around, slot zeroing).
  std::mt19937_64 rng(20210705);
  for (u32 width = 1; width <= 12; ++width) {
    WidthLimiter w(width);
    std::map<Cycle, u32> ref;
    Cycle base = 0;
    Cycle cursor = 0;  // where requests cluster; drifts forward
    for (int step = 0; step < 20000; ++step) {
      const u64 r = rng() % 100;
      if (r < 4) {
        const Cycle before =
            base + (r == 0 ? 256 + rng() % 4096 : rng() % 64);
        w.prune(before);
        ref.erase(ref.begin(), ref.lower_bound(before));
        base = before;
        if (rng() % 2 == 0 && cursor < base) cursor = base;
        continue;
      }
      Cycle earliest = cursor + rng() % 48;
      earliest = earliest > 24 ? earliest - 24 : 0;  // may fall below base
      if (r < 6) earliest = cursor + rng() % 2048;   // far ahead: growth
      Cycle expect = earliest < base ? base : earliest;
      while (ref[expect] >= width) ++expect;
      ++ref[expect];
      ASSERT_EQ(w.alloc(earliest), expect)
          << "width " << width << " step " << step << " earliest "
          << earliest << " base " << base;
      cursor += rng() % 3;
    }
  }
}

TEST(PipelineTiming, IndependentOpsOverlap) {
  // 64 independent ALU ops should take far fewer cycles than 64 serial ones.
  ProgramBuilder pb_par;
  for (int i = 0; i < 16; ++i)
    for (int r = 10; r < 14; ++r)
      pb_par.addi(static_cast<isa::Reg>(r), isa::kRegZero, i);
  pb_par.halt();
  ProgramBuilder pb_ser;
  pb_ser.li(10, 0);
  for (int i = 0; i < 64; ++i) pb_ser.addi(10, 10, 1);
  pb_ser.halt();
  const auto par = run_timed(pb_par);
  const auto ser = run_timed(pb_ser);
  EXPECT_LT(par.cycles, ser.cycles);
}

TEST(PipelineTiming, DivLatencyDominates) {
  ProgramBuilder pb;
  pb.li(1, 1000);
  pb.li(2, 3);
  for (int i = 0; i < 8; ++i) pb.div(3, 1, 2);  // serial unpipelined divides
  pb.halt();
  const auto s = run_timed(pb);
  PipelineConfig cfg;
  EXPECT_GT(s.cycles, 8 * cfg.div_latency);
}

TEST(PipelineTiming, ColdLoadsSlowerThanWarm) {
  // Two passes over an array: the second pass should be much faster.
  auto build = [](int passes) {
    ProgramBuilder pb;
    const Addr buf = pb.alloc(512 * 8, 64);
    pb.li(5, passes);
    auto outer = pb.new_label();
    pb.bind(outer);
    pb.li(1, static_cast<i64>(buf));
    pb.li(2, 512);
    auto loop = pb.new_label();
    pb.bind(loop);
    pb.ld(3, 1, 0);
    pb.addi(1, 1, 8);
    pb.addi(2, 2, -1);
    pb.bne(2, isa::kRegZero, loop);
    pb.addi(5, 5, -1);
    pb.bne(5, isa::kRegZero, outer);
    pb.halt();
    return pb;
  };
  auto one = build(1);
  auto two = build(2);
  PipelineConfig cfg;
  cfg.memory.enable_prefetchers = false;  // isolate pure locality
  const auto s1 = run_timed(one, cpu::ExecMode::kLegacy, cfg);
  const auto s2 = run_timed(two, cpu::ExecMode::kLegacy, cfg);
  // Second pass adds far fewer cycles than the first cost.
  EXPECT_LT(s2.cycles - s1.cycles, s1.cycles / 2);
}

TEST(PipelineTiming, MispredictionCostsCycles) {
  // A data-dependent unpredictable branch vs. an always-taken one.
  auto build = [](bool alternating) {
    ProgramBuilder pb;
    pb.li(1, 0);    // i
    pb.li(2, 2000); // limit
    pb.li(5, 0);
    auto loop = pb.new_label();
    auto skip = pb.new_label();
    pb.bind(loop);
    if (alternating) {
      // branch pattern derived from a xorshift-ish scramble of i: hard-ish
      pb.mul(3, 1, 1);
      pb.srli(3, 3, 3);
      pb.xor_(3, 3, 1);
      pb.andi(3, 3, 1);
    } else {
      pb.li(3, 1);
    }
    pb.beq(3, isa::kRegZero, skip);
    pb.addi(5, 5, 1);
    pb.bind(skip);
    pb.addi(1, 1, 1);
    pb.blt(1, 2, loop);
    pb.halt();
    return pb;
  };
  auto hard = build(true);
  auto easy = build(false);
  const auto sh = run_timed(hard);
  const auto se = run_timed(easy);
  EXPECT_GT(sh.branch_mispredicts, se.branch_mispredicts);
}

TEST(PipelineTiming, StoreForwardingObserved) {
  ProgramBuilder pb;
  const Addr buf = pb.alloc(8, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 42);
  for (int i = 0; i < 16; ++i) {
    pb.st(2, 1, 0);
    pb.ld(3, 1, 0);  // immediately reads the just-stored value
  }
  pb.halt();
  const auto s = run_timed(pb);
  EXPECT_GT(s.store_forwards, 0u);
}

TEST(PipelineTiming, BoundaryCrossingStoreIsSeenByChunkAlignedLoad) {
  // Regression: RAW detection keys the store buffer on addr & ~7, and a
  // store whose bytes straddle an 8-byte boundary used to register only
  // its low chunk — a later load of the high chunk issued without waiting
  // for the store's data. Both chunks are registered now; the load's issue
  // must not precede the readiness of the store data it overlaps.
  ProgramBuilder pb;
  const Addr buf = pb.alloc(32, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 3);
  // Long dependency chain so the store's data is late relative to when an
  // independent load could otherwise issue.
  for (int i = 0; i < 24; ++i) pb.mul(2, 2, 2);
  pb.st(2, 1, 4);  // bytes [buf+4, buf+12): chunks buf and buf+8
  pb.ld(3, 1, 8);  // reads chunk buf+8 — overlaps the store's high bytes
  pb.halt();

  auto prog = pb.build();
  mem::MainMemory memory;
  cpu::FunctionalCore core(&prog, &memory);
  pipeline::Pipeline pipe(&core, {});
  Cycle store_complete = 0, load_issue = 0;
  pipe.on_retire = [&](const cpu::DynOp& op,
                       const pipeline::OpTimestamps& ts) {
    if (op.is_mem && op.is_store && op.mem_addr == buf + 4)
      store_complete = ts.complete;
    if (op.is_mem && !op.is_store && op.mem_addr == buf + 8)
      load_issue = ts.issue;
  };
  pipe.run();
  ASSERT_GT(store_complete, 0u);
  ASSERT_GT(load_issue, 0u);
  EXPECT_GE(load_issue, store_complete);  // the RAW dependency is observed
}

TEST(PipelineTiming, BoundaryCrossingLoadConsultsBothChunks) {
  // The dual: a chunk-aligned store followed by a load whose bytes cross
  // into the store's chunk from below. The load must wait even though its
  // own base address hashes to the other chunk.
  ProgramBuilder pb;
  const Addr buf = pb.alloc(32, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 3);
  for (int i = 0; i < 24; ++i) pb.mul(2, 2, 2);
  pb.st(2, 1, 8);  // chunk buf+8 only
  pb.ld(3, 1, 4);  // bytes [buf+4, buf+12): low chunk buf, high chunk buf+8
  pb.halt();

  auto prog = pb.build();
  mem::MainMemory memory;
  cpu::FunctionalCore core(&prog, &memory);
  pipeline::Pipeline pipe(&core, {});
  Cycle store_complete = 0, load_issue = 0;
  pipe.on_retire = [&](const cpu::DynOp& op,
                       const pipeline::OpTimestamps& ts) {
    if (op.is_mem && op.is_store) store_complete = ts.complete;
    if (op.is_mem && !op.is_store) load_issue = ts.issue;
  };
  pipe.run();
  ASSERT_GT(store_complete, 0u);
  ASSERT_GT(load_issue, 0u);
  EXPECT_GE(load_issue, store_complete);
}

TEST(PipelineTiming, CacheStatsPopulated) {
  ProgramBuilder pb;
  const Addr buf = pb.alloc(4096, 64);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 512);
  auto loop = pb.new_label();
  pb.bind(loop);
  pb.ld(3, 1, 0);
  pb.addi(1, 1, 8);
  pb.addi(2, 2, -1);
  pb.bne(2, isa::kRegZero, loop);
  pb.halt();
  const auto s = run_timed(pb);
  EXPECT_GT(s.dl1_accesses, 500u);
  EXPECT_GT(s.il1_accesses, 0u);
  EXPECT_GT(s.instructions, 0u);
  EXPECT_GT(s.cpi(), 0.0);
}

ProgramBuilder secure_region_prog(int body_len, int reps = 1) {
  ProgramBuilder pb;
  pb.li(1, 0);
  pb.li(2, reps);
  auto outer = pb.new_label();
  pb.bind(outer);
  auto join = pb.new_label();
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  for (int i = 0; i < body_len; ++i) pb.addi(5, 5, 1);
  pb.bind(join);
  pb.eosjmp();
  pb.addi(2, 2, -1);
  pb.bne(2, isa::kRegZero, outer);
  pb.halt();
  return pb;
}

TEST(SempeTiming, SecureRegionCostsDrainsAndSpm) {
  // Run the region many times so steady-state behavior dominates over the
  // cold-cache startup (on a cold single shot, legacy's mispredicted branch
  // serializes an IL1 miss and can actually be *slower* than SeMPE, which
  // never redirects fetch at an sJMP — the paper's "no branch
  // misprediction" CPI factor).
  auto a = secure_region_prog(16, 50);
  auto b = secure_region_prog(16, 50);
  const auto legacy = run_timed(a, cpu::ExecMode::kLegacy);
  const auto sempe = run_timed(b, cpu::ExecMode::kSempe);
  EXPECT_GT(sempe.cycles, legacy.cycles);
  EXPECT_EQ(sempe.sjmp_executed, 50u);
  EXPECT_EQ(sempe.secure_regions_completed, 50u);
  EXPECT_GT(sempe.spm_bytes, 0u);
  EXPECT_GT(sempe.drain_stall_cycles, 0u);
  // Legacy never touches SeMPE machinery.
  EXPECT_EQ(legacy.sjmp_executed, 0u);
  EXPECT_EQ(legacy.spm_bytes, 0u);
}

TEST(SempeTiming, ColdSingleShotSempeAvoidsRedirectSerialization) {
  // Documents the cold-start effect above: one cold secure region can be
  // cheaper under SeMPE because fetch streams past the sJMP while legacy's
  // misprediction serializes the next i-cache miss behind the resolve.
  auto a = secure_region_prog(16, 1);
  auto b = secure_region_prog(16, 1);
  const auto legacy = run_timed(a, cpu::ExecMode::kLegacy);
  const auto sempe = run_timed(b, cpu::ExecMode::kSempe);
  // The sJMP never mispredicts under SeMPE; only the (shared) outer loop
  // branch can. Legacy additionally mispredicts the secure branch itself.
  EXPECT_LT(sempe.branch_mispredicts, legacy.branch_mispredicts);
}

TEST(SempeTiming, SjmpNeverConsultsPredictor) {
  // A program whose only branch is the sJMP: the predictor must stay idle.
  ProgramBuilder pb;
  pb.li(1, 0);
  auto join = pb.new_label();
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  auto prog = pb.build();
  mem::MainMemory memory;
  cpu::CoreConfig cc;
  cc.mode = cpu::ExecMode::kSempe;
  cpu::FunctionalCore core(&prog, &memory, cc);
  pipeline::Pipeline pipe(&core, {});
  pipe.run();
  EXPECT_EQ(pipe.tage().lookups(), 0u);  // only the sJMP branch exists
}

TEST(SempeTiming, SempeCyclesIndependentOfSecret) {
  Cycle cycles[2];
  for (i64 s : {0, 1}) {
    ProgramBuilder pb;
    pb.li(1, s);
    auto taken = pb.new_label();
    auto join = pb.new_label();
    pb.bne(1, isa::kRegZero, taken, Secure::kYes);
    for (int i = 0; i < 32; ++i) pb.addi(5, 5, 1);
    pb.jmp(join);
    pb.bind(taken);
    for (int i = 0; i < 8; ++i) pb.addi(6, 6, 3);
    pb.bind(join);
    pb.eosjmp();
    pb.halt();
    cycles[s] = run_timed(pb, cpu::ExecMode::kSempe).cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(SempeTiming, LegacyCyclesDependOnSecret) {
  // Same program as above on the unprotected core: the timing channel.
  Cycle cycles[2];
  for (i64 s : {0, 1}) {
    ProgramBuilder pb;
    pb.li(1, s);
    auto taken = pb.new_label();
    auto join = pb.new_label();
    pb.bne(1, isa::kRegZero, taken, Secure::kYes);
    for (int i = 0; i < 64; ++i) pb.addi(5, 5, 1);
    pb.jmp(join);
    pb.bind(taken);
    pb.addi(6, 6, 3);
    pb.bind(join);
    pb.eosjmp();
    pb.halt();
    cycles[s] = run_timed(pb, cpu::ExecMode::kLegacy).cycles;
  }
  EXPECT_NE(cycles[0], cycles[1]);
}

TEST(SempeTiming, NestedRegionsAccumulateSpmTraffic) {
  ProgramBuilder pb;
  pb.li(1, 0);
  auto j1 = pb.new_label();
  auto j2 = pb.new_label();
  pb.bne(1, isa::kRegZero, j1, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bne(1, isa::kRegZero, j2, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bind(j2);
  pb.eosjmp();
  pb.bind(j1);
  pb.eosjmp();
  pb.halt();
  const auto s = run_timed(pb, cpu::ExecMode::kSempe);
  EXPECT_EQ(s.sjmp_executed, 2u);
  EXPECT_EQ(s.secure_regions_completed, 2u);
  // Two regions: two full saves plus per-region restore traffic.
  EXPECT_GE(s.spm_bytes, 2u * (48 * 8 + 16));
}

TEST(SempeTiming, RetireWidthBoundsThroughput) {
  // IPC can never exceed the retire width.
  ProgramBuilder pb;
  for (int i = 0; i < 2000; ++i)
    pb.addi(static_cast<isa::Reg>(10 + (i % 16)), isa::kRegZero, 1);
  pb.halt();
  const auto s = run_timed(pb);
  PipelineConfig cfg;
  const double ipc =
      static_cast<double>(s.instructions) / static_cast<double>(s.cycles);
  EXPECT_LE(ipc, static_cast<double>(cfg.retire_width));
  EXPECT_GT(ipc, 1.0);  // and the machine is genuinely superscalar
}

// A malformed machine is a SimError, never a crash: one case per width,
// occupancy capacity and SPM port field set to zero, and per predictor
// geometry the hashing cannot serve (tags outside what a u16 holds or, for
// TAGE, narrower than its two tag folds need; history lengths of 0 or past
// the history register, 512 bits for TAGE and 256 for ITTAGE; no RAS).
struct ConfigField {
  const char* name;
  void (*mutate)(PipelineConfig&);
};

const ConfigField kMalformedFields[] = {
    {"fetch_width", [](PipelineConfig& c) { c.fetch_width = 0; }},
    {"decode_width", [](PipelineConfig& c) { c.decode_width = 0; }},
    {"rename_width", [](PipelineConfig& c) { c.rename_width = 0; }},
    {"issue_width", [](PipelineConfig& c) { c.issue_width = 0; }},
    {"load_issue_width", [](PipelineConfig& c) { c.load_issue_width = 0; }},
    {"retire_width", [](PipelineConfig& c) { c.retire_width = 0; }},
    {"alu_units", [](PipelineConfig& c) { c.alu_units = 0; }},
    {"mul_units", [](PipelineConfig& c) { c.mul_units = 0; }},
    {"fp_units", [](PipelineConfig& c) { c.fp_units = 0; }},
    {"store_ports", [](PipelineConfig& c) { c.store_ports = 0; }},
    {"rob_entries", [](PipelineConfig& c) { c.rob_entries = 0; }},
    {"iq_int_entries", [](PipelineConfig& c) { c.iq_int_entries = 0; }},
    {"iq_fp_entries", [](PipelineConfig& c) { c.iq_fp_entries = 0; }},
    {"load_queue", [](PipelineConfig& c) { c.load_queue = 0; }},
    {"store_queue", [](PipelineConfig& c) { c.store_queue = 0; }},
    {"phys_int_regs",
     [](PipelineConfig& c) { c.phys_int_regs = isa::kNumIntRegs; }},
    {"phys_fp_regs",
     [](PipelineConfig& c) { c.phys_fp_regs = isa::kNumFpRegs; }},
    {"spm_bytes_per_cycle",
     [](PipelineConfig& c) { c.spm_bytes_per_cycle = 0; }},
    {"tage_tag_bits_1", [](PipelineConfig& c) { c.tage.tag_bits = 1; }},
    {"tage_tag_bits_17", [](PipelineConfig& c) { c.tage.tag_bits = 17; }},
    {"tage_history_0",
     [](PipelineConfig& c) { c.tage.history_lengths = {0, 9}; }},
    {"tage_history_513",
     [](PipelineConfig& c) { c.tage.history_lengths = {4, 513}; }},
    {"ittage_tag_bits_0", [](PipelineConfig& c) { c.ittage.tag_bits = 0; }},
    {"ittage_tag_bits_17",
     [](PipelineConfig& c) { c.ittage.tag_bits = 17; }},
    {"ittage_history_0",
     [](PipelineConfig& c) { c.ittage.history_lengths = {0}; }},
    {"ittage_history_257",
     [](PipelineConfig& c) { c.ittage.history_lengths = {8, 257}; }},
    {"ras_depth_0", [](PipelineConfig& c) { c.ras_depth = 0; }},
};

class MalformedConfig : public ::testing::TestWithParam<usize> {};

TEST_P(MalformedConfig, RaisesSimError) {
  PipelineConfig cfg;
  kMalformedFields[GetParam()].mutate(cfg);
  // A secure region, a load and a store: every resource the field sizes.
  ProgramBuilder pb;
  const Addr buf = pb.alloc(16, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.st(1, 1, 0);
  pb.ld(2, 1, 0);
  auto join = pb.new_label();
  pb.bne(2, isa::kRegZero, join, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  EXPECT_THROW(run_timed(pb, cpu::ExecMode::kSempe, cfg), SimError);
}

INSTANTIATE_TEST_SUITE_P(
    PipelineConfig, MalformedConfig,
    ::testing::Range<usize>(0, std::size(kMalformedFields)),
    [](const ::testing::TestParamInfo<usize>& info) {
      return std::string(kMalformedFields[info.param].name);
    });

// Timing-model invariants, checked on every retired op: stage order,
// in-order commit, per-cycle stage widths, and the retire-width bound on
// the whole run. The first violation is kept for the failure message.
class InvariantChecker {
 public:
  explicit InvariantChecker(const PipelineConfig& cfg) : cfg_(cfg) {}

  void operator()(const cpu::DynOp& op, const pipeline::OpTimestamps& ts) {
    ++ops_;
    if (!(ts.fetch <= ts.rename && ts.rename <= ts.issue &&
          ts.issue <= ts.complete && ts.complete <= ts.commit))
      fail(op, ts, "stage order");
    if (ts.commit < last_commit_) fail(op, ts, "commit went backwards");
    last_commit_ = ts.commit;
    if (bump(fetch_, ts.fetch) > cfg_.fetch_width) fail(op, ts, "fetch width");
    if (bump(rename_, ts.rename) > cfg_.rename_width)
      fail(op, ts, "rename width");
    if (bump(issue_, ts.issue) > cfg_.issue_width) fail(op, ts, "issue width");
    if (bump(commit_, ts.commit) > cfg_.retire_width)
      fail(op, ts, "retire width");
  }

  /// "" when every op and the run totals held, else the first violation.
  std::string verdict(const PipelineStats& s) const {
    if (!first_.empty()) return first_;
    if (s.instructions != ops_) return "retire hook missed ops";
    if (s.cycles * cfg_.retire_width < s.instructions)
      return "cycles x retire_width < instructions";
    return "";
  }

 private:
  static u32 bump(std::vector<u32>& counts, Cycle c) {
    if (c >= counts.size()) counts.resize(c + c / 2 + 64, 0);
    return ++counts[c];
  }

  void fail(const cpu::DynOp& op, const pipeline::OpTimestamps& ts,
            const char* what) {
    if (!first_.empty()) return;
    std::ostringstream os;
    os << what << " at op " << ops_ << " pc 0x" << std::hex << op.pc
       << std::dec << ": fetch " << ts.fetch << " rename " << ts.rename
       << " issue " << ts.issue << " complete " << ts.complete << " commit "
       << ts.commit;
    first_ = os.str();
  }

  PipelineConfig cfg_;
  u64 ops_ = 0;
  Cycle last_commit_ = 0;
  std::vector<u32> fetch_, rename_, issue_, commit_;
  std::string first_;
};

enum class Mode { kLegacy, kSempe, kCte };

const char* mode_name(Mode m) {
  return m == Mode::kLegacy ? "legacy" : m == Mode::kSempe ? "sempe" : "cte";
}

// Run a registry workload as sim::run would (CTE: the CTE build on the
// legacy core), with the invariant checker on the retire hook.
PipelineStats run_checked(const std::string& spec, Mode mode) {
  const auto built = workloads::WorkloadRegistry::instance().build(
      spec, mode == Mode::kCte ? workloads::Variant::kCte
                               : workloads::Variant::kSecure);
  sim::RunConfig rc;
  rc.core.mode =
      mode == Mode::kSempe ? cpu::ExecMode::kSempe : cpu::ExecMode::kLegacy;
  rc.record_observations = false;
  mem::MainMemory memory;
  sim::Core core(&built.program, rc, &memory);
  InvariantChecker check(rc.pipe);
  core.pipe().on_retire = [&check](const cpu::DynOp& op,
                                   const pipeline::OpTimestamps& ts) {
    check(op, ts);
  };
  core.run_to_halt();
  const PipelineStats stats = core.finish().stats;
  EXPECT_EQ(check.verdict(stats), "") << spec << " " << mode_name(mode);
  return stats;
}

TEST(TimingInvariants, HoldOnSmallWorkloadsInEveryMode) {
  for (const char* spec :
       {"micro.quicksort?width=2&iters=3&size=24&secrets=10",
        "micro.fibonacci?width=3&iters=2", "synthetic.cond_branch?width=3",
        "crypto.modexp?width=2"})
    for (Mode mode : {Mode::kLegacy, Mode::kSempe, Mode::kCte})
      run_checked(spec, mode);
}

// Long runs cross many 4096-op limiter prunes and at least two 65536-op
// store-buffer sweeps, which the golden files' short runs never reach.
// Each also runs under the invariant checker. The pinned values were
// recorded before the limiters moved from deques to rings and their prune
// floor from min(fetch, rename) floors to the fetch floor, and must never
// be regenerated.
struct PrunePin {
  const char* spec;
  Mode mode;
  Cycle cycles;
  Cycle drain_stall_cycles;
  Cycle spm_transfer_cycles;
};

const PrunePin kPrunePins[] = {
    {"micro.queens?width=4&secrets=0&iters=20", Mode::kLegacy, 43675, 0, 0},
    {"micro.queens?width=4&secrets=0", Mode::kSempe, 77982, 75646, 220},
    {"micro.queens?width=4&secrets=0", Mode::kCte, 1338661, 0, 0},
    {"djpeg?format=gif&pixels=65536&scale=32", Mode::kLegacy, 110889, 0, 0},
    {"djpeg?format=gif&pixels=65536&scale=32", Mode::kSempe, 169201, 200714,
     320},
};

TEST(PrunePins, LongRunsKeepTheirCycles) {
  for (const PrunePin& pin : kPrunePins) {
    const PipelineStats s = run_checked(pin.spec, pin.mode);
    const std::string where =
        std::string(pin.spec) + " " + mode_name(pin.mode);
    EXPECT_GT(s.instructions, 2u * 65536u) << where;
    EXPECT_EQ(s.cycles, pin.cycles) << where;
    EXPECT_EQ(s.drain_stall_cycles, pin.drain_stall_cycles) << where;
    EXPECT_EQ(s.spm_transfer_cycles, pin.spm_transfer_cycles) << where;
  }
}

}  // namespace
}  // namespace sempe
