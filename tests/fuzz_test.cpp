// Property-based tests: randomly generated programs with nested secure
// regions must (a) compute the same architectural results under SeMPE as
// under legacy execution, and (b) be observation-indistinguishable across
// secrets under SeMPE. A second fuzzer drives the workload registry's
// spec grammar: random (often malformed) `name?key=val&...` strings must
// either build or throw SimError — never crash — and every accepted spec
// must round-trip through its canonical form. A third fuzzer runs random
// machine code, registers seeded with extreme values, through the full
// timing model in legacy and SeMPE modes: every program must end in a
// result or a SimError, identically on a rerun.
#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <string>

#include "isa/program_builder.h"
#include "core/region_verifier.h"
#include "security/observation.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads/registry.h"

namespace sempe {
namespace {

using isa::ProgramBuilder;
using isa::Reg;
using isa::Secure;

constexpr Reg kFirstScratch = 10;
constexpr Reg kNumScratch = 10;  // x10..x19
constexpr Reg kSecretsBase = 4;

/// Emits a random ALU instruction over the scratch registers.
void emit_random_alu(ProgramBuilder& pb, Rng& rng) {
  const Reg rd = static_cast<Reg>(kFirstScratch + rng.next_below(kNumScratch));
  const Reg rs1 = static_cast<Reg>(kFirstScratch + rng.next_below(kNumScratch));
  const Reg rs2 = static_cast<Reg>(kFirstScratch + rng.next_below(kNumScratch));
  switch (rng.next_below(8)) {
    case 0: pb.add(rd, rs1, rs2); break;
    case 1: pb.sub(rd, rs1, rs2); break;
    case 2: pb.xor_(rd, rs1, rs2); break;
    case 3: pb.mul(rd, rs1, rs2); break;
    case 4: pb.andi(rd, rs1, rng.next_in(0, 1023)); break;
    case 5: pb.ori(rd, rs1, rng.next_in(0, 1023)); break;
    case 6: pb.slli(rd, rs1, rng.next_in(0, 7)); break;
    default: pb.addi(rd, rs1, rng.next_in(-64, 64)); break;
  }
}

struct FuzzProgram {
  isa::Program program;
  Addr result_base = 0;
  usize num_results = 0;
};

/// Random nest of secure regions. Each region: load its secret, sJMP, a
/// random body (possibly containing a nested region), an optional else
/// body, eosJMP at the join, and a shadow-store + CMOV merge afterwards.
FuzzProgram build_fuzz(u64 structure_seed, const std::vector<u8>& secrets) {
  ProgramBuilder pb;
  Rng rng(structure_seed);

  std::vector<i64> secret_words;
  for (u8 s : secrets) secret_words.push_back(s);
  if (secret_words.empty()) secret_words.push_back(0);
  const Addr secrets_addr = pb.alloc_words(secret_words);
  const usize max_regions = secrets.size();
  const Addr results = pb.alloc(8 * (max_regions + 1), 8);

  pb.li(kSecretsBase, static_cast<i64>(secrets_addr));
  for (usize r = 0; r < kNumScratch; ++r)
    pb.li(static_cast<Reg>(kFirstScratch + r), rng.next_in(1, 1000));

  usize next_secret = 0;
  // Recursive region generator. Depth bounded by the secret count.
  // `enclosing` lists the secret indices guarding the current emission
  // point: shadow-memory discipline requires every merge store to be a
  // constant-time read-modify-write gated by the *effective* (ANDed)
  // condition, so that executing it on a wrong path is a no-op.
  // Each enclosing guard is (secret index, polarity): code in an NT path is
  // reached in legacy execution only when that secret is FALSE.
  using Guard = std::pair<usize, bool>;
  std::function<void(usize, std::vector<Guard>)> region =
      [&](usize depth, std::vector<Guard> enclosing) {
    if (next_secret >= max_regions) return;
    const usize idx = next_secret++;
    const Addr shadow = pb.alloc(8, 8);

    pb.ld(6, kSecretsBase, static_cast<i64>(idx * 8));
    auto taken = pb.new_label();
    auto join = pb.new_label();
    const bool has_else = rng.next_bool();
    pb.bne(6, isa::kRegZero, taken, Secure::kYes);
    // NT path (secret == 0). Shadow writes are unconditional within the
    // path (both modes execute them whenever this code runs).
    const usize nt_len = 1 + rng.next_below(6);
    for (usize i = 0; i < nt_len; ++i) emit_random_alu(pb, rng);
    if (depth < 3 && rng.next_bool()) {
      std::vector<Guard> g = enclosing;
      g.push_back({idx, false});  // NT path: reached when secret is false
      region(depth + 1, g);
    }
    if (has_else) {
      pb.jmp(join);
      pb.bind(taken);
      const usize t_len = 1 + rng.next_below(6);
      for (usize i = 0; i < t_len; ++i) emit_random_alu(pb, rng);
      // Shadow-store a value the merge can pick up.
      pb.li(7, static_cast<i64>(shadow));
      pb.st(static_cast<Reg>(kFirstScratch + rng.next_below(kNumScratch)), 7,
            0);
      if (depth < 3 && rng.next_bool()) {
        std::vector<Guard> g = enclosing;
        g.push_back({idx, true});  // taken path: reached when secret is true
        region(depth + 1, g);
      }
    } else {
      pb.bind(taken);
    }
    pb.bind(join);
    pb.eosjmp();
    // Merge: result[idx] = eff ? shadow : result[idx], where eff is the
    // polarity-correct AND of this region's reaching condition and its own
    // secret (the shadow is only written on the taken path). On a wrong
    // path (SeMPE) eff is 0 and the store rewrites the old value — a
    // constant-time no-op, preserving legacy-equivalent memory state.
    std::vector<Guard> eff_guards = enclosing;
    eff_guards.push_back({idx, true});
    pb.li(5, 1);
    for (const auto& [s, pol] : eff_guards) {
      pb.ld(6, kSecretsBase, static_cast<i64>(s * 8));
      pb.sne(6, 6, isa::kRegZero);
      if (!pol) pb.xori(6, 6, 1);
      pb.and_(5, 5, 6);
    }
    pb.li(7, static_cast<i64>(shadow));
    pb.ld(8, 7, 0);
    pb.li(7, static_cast<i64>(results + idx * 8));
    pb.ld(9, 7, 0);
    pb.cmov(9, 5, 8);
    pb.st(9, 7, 0);
  };

  while (next_secret < max_regions) region(0, {});

  // Final summary of all scratch registers (exposes ArchRS restore bugs).
  pb.li(9, 0);
  for (usize r = 0; r < kNumScratch; ++r)
    pb.xor_(9, 9, static_cast<Reg>(kFirstScratch + r));
  pb.li(7, static_cast<i64>(results + max_regions * 8));
  pb.st(9, 7, 0);
  pb.halt();

  FuzzProgram out;
  out.result_base = results;
  out.num_results = max_regions + 1;
  out.program = pb.build();
  return out;
}

std::vector<u8> random_secrets(u64 seed, usize n) {
  Rng rng(seed ^ 0xabcdef);
  std::vector<u8> s(n);
  for (auto& b : s) b = rng.next_bool() ? 1 : 0;
  return s;
}

class Fuzz : public ::testing::TestWithParam<u64> {};

TEST_P(Fuzz, SempeMatchesLegacyResults) {
  const u64 seed = GetParam();
  for (usize regions : {usize{1}, usize{3}, usize{5}}) {
    const auto secrets = random_secrets(seed + regions, regions);
    const auto f = build_fuzz(seed, secrets);
    const auto legacy = sim::run_functional(
        f.program, cpu::ExecMode::kLegacy, {}, f.result_base, f.num_results);
    const auto sempe = sim::run_functional(
        f.program, cpu::ExecMode::kSempe, {}, f.result_base, f.num_results);
    EXPECT_EQ(legacy.probed, sempe.probed)
        << "seed=" << seed << " regions=" << regions;
    // The full scratch-register state also matches.
    for (Reg r = kFirstScratch; r < kFirstScratch + kNumScratch; ++r) {
      EXPECT_EQ(legacy.final_state.get_int(r), sempe.final_state.get_int(r))
          << "seed=" << seed << " reg x" << int(r);
    }
  }
}

TEST_P(Fuzz, SempeIndistinguishableAcrossSecrets) {
  const u64 seed = GetParam();
  const usize regions = 4;
  const auto f0 = build_fuzz(seed, std::vector<u8>(regions, 0));
  const auto f1 = build_fuzz(seed, random_secrets(seed, regions));
  const auto r0 = sim::run_functional(f0.program, cpu::ExecMode::kSempe);
  const auto r1 = sim::run_functional(f1.program, cpu::ExecMode::kSempe);
  EXPECT_EQ(r0.instructions, r1.instructions) << "seed=" << seed;
  EXPECT_EQ(r0.trace.fetch_prefix, r1.trace.fetch_prefix) << "seed=" << seed;
  EXPECT_EQ(r0.trace.mem_prefix, r1.trace.mem_prefix) << "seed=" << seed;
}

TEST_P(Fuzz, GeneratedProgramsVerifyClean) {
  const u64 seed = GetParam();
  const auto f = build_fuzz(seed, random_secrets(seed, 4));
  core::VerifyOptions opt;
  opt.allow_div = true;
  const auto r = core::verify_secure_regions(f.program, opt);
  EXPECT_TRUE(r.ok()) << "seed=" << seed << "\n" << r.to_string();
}

TEST_P(Fuzz, TimingAlsoSecretIndependent) {
  const u64 seed = GetParam();
  const usize regions = 3;
  const auto f0 = build_fuzz(seed, std::vector<u8>(regions, 0));
  const auto f1 = build_fuzz(seed, std::vector<u8>(regions, 1));
  sim::RunConfig rc;
  rc.core.mode = cpu::ExecMode::kSempe;
  rc.record_observations = false;
  const auto c0 = sim::run(f0.program, rc).stats.cycles;
  const auto c1 = sim::run(f1.program, rc).stats.cycles;
  EXPECT_EQ(c0, c1) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987));

// ---------------------------------------------------------------------------
// Random machine code through sim::run.

using isa::Instruction;
using isa::OpClass;
using isa::Opcode;

/// Registers the random programs compute with; the prologue seeds them.
constexpr Reg kFuzzIntRegs = 16;  // x0..x15
constexpr Reg kFuzzFpRegs = 4;    // f0..f3 (register indices 32..35)

/// Register values that stress address and ALU arithmetic: zero, +-1,
/// the i64 extremes, and addresses on page and segment edges.
const i64 kExtremeValues[] = {
    0,
    1,
    -1,
    INT64_MIN,
    INT64_MAX,
    INT64_MIN + 1,
    INT64_MAX - 7,
    0xfff,
    0x1000 - 4,
    static_cast<i64>(isa::kDataBase) + 0x1000 - 3,
    static_cast<i64>(isa::kStackTop) - 8,
    static_cast<i64>(isa::kCodeBase),
    -4096,
    static_cast<i64>(0x7fff'ffff'ffff'f000),
};

Reg random_reg(Rng& rng, bool fp) {
  if (rng.next_below(50) == 0)  // now and then the wrong class
    return static_cast<Reg>(rng.next_below(isa::kNumArchRegs));
  if (fp) return static_cast<Reg>(isa::kNumIntRegs + rng.next_below(kFuzzFpRegs));
  return static_cast<Reg>(rng.next_below(kFuzzIntRegs));
}

/// A random valid instruction for slot `i` of an `n`-slot body. Control
/// transfers mostly land on an instruction of the program.
Instruction random_instruction(Rng& rng, usize i, usize n) {
  Instruction ins;
  ins.op = static_cast<Opcode>(rng.next_below(isa::kNumOpcodes));
  const OpClass cls = isa::op_info(ins.op).op_class;
  const bool fp_dst = cls == OpClass::kFpAlu || cls == OpClass::kFpDiv;
  const bool fp_src = fp_dst && ins.op != Opcode::kI2f;
  ins.rd = random_reg(rng, fp_dst && ins.op != Opcode::kF2i);
  ins.rs1 = random_reg(rng, fp_src);
  ins.rs2 = random_reg(rng, fp_src);
  const i64 here = static_cast<i64>(i);
  const i64 slot_offset =
      8 * rng.next_in(-here, static_cast<i64>(n) - here);  // within the body
  switch (rng.next_below(4)) {
    case 0: ins.imm = rng.next_in(INT32_MIN, INT32_MAX); break;
    case 1: ins.imm = rng.next_in(-16, 16); break;
    default: ins.imm = slot_offset; break;
  }
  if (cls == OpClass::kBranch || ins.op == Opcode::kJal) {
    if (rng.next_below(8) != 0) ins.imm = slot_offset;
    ins.secure = cls == OpClass::kBranch && rng.next_below(3) == 0;
  }
  return ins;
}

/// A seeded random program: a prologue loading extreme values into the
/// integer and FP registers, then a body of random valid encodings with
/// some raw random words mixed in, then HALT.
isa::Program random_program(u64 seed) {
  Rng rng(seed);
  ProgramBuilder pb;
  for (Reg r = 1; r < kFuzzIntRegs; ++r)
    pb.li64(r, kExtremeValues[rng.next_below(std::size(kExtremeValues))]);
  for (Reg f = 0; f < kFuzzFpRegs; ++f)
    pb.i2f(static_cast<Reg>(isa::kNumIntRegs + f),
           static_cast<Reg>(1 + rng.next_below(kFuzzIntRegs - 1)));
  std::vector<u64> words = pb.build().code();
  const usize n = 8 + rng.next_below(56);
  for (usize i = 0; i < n; ++i) {
    // Now and then a raw word: almost always undecodable, so the run fails
    // at its fetch if it gets there.
    words.push_back(rng.next_below(25) == 0
                        ? rng.next_u64()
                        : isa::encode(random_instruction(rng, i, n)));
  }
  words.push_back(isa::encode({.op = Opcode::kHalt}));
  return isa::Program(isa::kCodeBase, std::move(words), {});
}

/// One run's outcome: its PipelineStats and instruction count, or the
/// SimError it ended in.
struct Outcome {
  std::map<std::string, u64> stats;
  u64 instructions = 0;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

Outcome run_outcome(const isa::Program& program, cpu::ExecMode mode) {
  sim::RunConfig rc;
  rc.core.mode = mode;
  rc.core.max_instructions = 5000;  // runaway loops end in SimError
  Outcome o;
  try {
    const sim::RunResult r = sim::run(program, rc);
    o.stats = r.stats.export_stats().counters();
    o.instructions = r.instructions;
  } catch (const SimError& e) {
    o.error = e.what();
  }
  return o;
}

class ProgramFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ProgramFuzz, RandomProgramsEndCleanlyAndReproducibly) {
  usize completed = 0, failed = 0;
  for (u64 k = 0; k < 100; ++k) {
    const u64 seed = GetParam() * 1000 + k;
    const isa::Program program = random_program(seed);
    for (const cpu::ExecMode mode :
         {cpu::ExecMode::kLegacy, cpu::ExecMode::kSempe}) {
      const Outcome first = run_outcome(program, mode);
      const Outcome again = run_outcome(program, mode);
      EXPECT_EQ(first, again) << "seed " << seed << " mode "
                              << static_cast<int>(mode) << ": "
                              << first.error << " / " << again.error;
      ++(first.error.empty() ? completed : failed);
    }
  }
  // Both outcomes occur, so the generator reaches HALT as well as errors.
  EXPECT_GT(completed, 0u) << "seed " << GetParam();
  EXPECT_GT(failed, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Registry spec-grammar fuzzing.

using workloads::BuiltWorkload;
using workloads::Variant;
using workloads::WorkloadRegistry;
using workloads::WorkloadSpec;

const char* pick(Rng& rng, const std::vector<const char*>& pool) {
  return pool[rng.next_below(pool.size())];
}

/// A random workload name: usually registered, sometimes junk.
std::string random_name(Rng& rng) {
  static const std::vector<std::string> registered =
      WorkloadRegistry::instance().names();
  if (rng.next_below(10) < 7) return registered[rng.next_below(
      registered.size())];
  static const std::vector<const char*> junk = {
      "",      "nope",      "synthetic.", "crypto", "micro.queens.",
      "djpeg ", " djpeg",   "Crypto.aes", "?",      "a?b",
  };
  return pick(rng, junk);
}

/// A random parameter value: small/huge/malformed numerics, 0/1 strings,
/// 0b mask literals (valid and broken), and garbage.
std::string random_value(Rng& rng) {
  static const std::vector<const char*> values = {
      "0",   "1",    "2",  "3",   "4",    "6",     "8",
      "12",  "16",   "32", "48",  "64",   "100",   "256",
      "500", "1000", "-1", "+2",  "abc",  "",      "0x10",
      " 7",  "7 ",   "01", "101", "1111", "0b0",   "0b1",
      "0b101", "0b", "0bxyz", "0b2", "ppm", "gif", "png",
      "1048577", "4294967296", "18446744073709551616",
      "99999999999999999999",
      "0b1111111111111111111111111111111111111111111111111111111111111111111",
  };
  return pick(rng, values);
}

std::string random_key(Rng& rng) {
  static const std::vector<const char*> keys = {
      "size",  "width",   "iters", "secrets", "seed",  "steps",
      "stride", "taken",  "targets", "chains", "depth", "rounds",
      "bits",  "slots",   "fill",  "format",  "pixels", "scale",
      "bogus", "SIZE",    "",      "s pace",
  };
  return pick(rng, keys);
}

std::string random_spec(Rng& rng) {
  if (rng.next_below(10) == 0) {
    // Structural junk: broken separators, empty pairs, duplicates.
    static const std::vector<const char*> junk = {
        "name?",        "?x=1",       "name?x",       "name?=1",
        "name??",       "a?x=1&&y=2", "a?x=1&x=2",    "a&x=1",
        "a?x=1&",       "&",          "a?x==1",       "a?x=1=2",
    };
    return pick(rng, junk);
  }
  std::string spec = random_name(rng);
  const usize n = rng.next_below(5);
  for (usize i = 0; i < n; ++i) {
    spec += i == 0 ? '?' : '&';
    spec += random_key(rng);
    spec += '=';
    spec += random_value(rng);
  }
  return spec;
}

class SpecFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(SpecFuzz, RandomSpecsNeverCrashAndAcceptedSpecsRoundTrip) {
  Rng rng(GetParam() ^ 0x5bec5bec);
  WorkloadRegistry& reg = WorkloadRegistry::instance();
  usize accepted = 0;
  for (usize i = 0; i < 300; ++i) {
    const std::string spec = random_spec(rng);
    BuiltWorkload b;
    try {
      b = reg.build(spec, Variant::kSecure);
    } catch (const SimError&) {
      continue;  // rejected with a diagnostic: the correct outcome
    }
    ++accepted;
    // Accepted: the canonical spec parses, re-serializes unchanged, and
    // rebuilds into the identical workload.
    const WorkloadSpec parsed = WorkloadSpec::parse(b.spec);
    EXPECT_EQ(parsed.to_string(), b.spec) << "from '" << spec << "'";
    const BuiltWorkload c = reg.build(b.spec, Variant::kSecure);
    EXPECT_EQ(c.spec, b.spec) << "from '" << spec << "'";
    EXPECT_EQ(c.program.code(), b.program.code()) << "from '" << spec << "'";
    EXPECT_EQ(c.expected_results, b.expected_results)
        << "from '" << spec << "'";

    // The CTE variant (where one exists) must round-trip too. Gate on a
    // small resolved size: CTE quicksort's oblivious sorting network emits
    // O(size^2) instructions by design.
    if (!reg.resolve(parsed.name).has_cte_variant()) continue;
    if (parsed.get_u64("size", 0) > 128) continue;
    try {
      const BuiltWorkload ct = reg.build(b.spec, Variant::kCte);
      const BuiltWorkload ct2 = reg.build(ct.spec, Variant::kCte);
      EXPECT_EQ(ct2.program.code(), ct.program.code())
          << "from '" << spec << "'";
    } catch (const SimError&) {
      // e.g. CTE queens supports only a narrower size range: acceptable.
    }
  }
  // The generator must actually exercise the accept path, not only reject.
  EXPECT_GT(accepted, 10u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecFuzz,
                         ::testing::Values(7, 11, 19, 29, 43, 71));

}  // namespace
}  // namespace sempe
