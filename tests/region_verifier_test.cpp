#include <gtest/gtest.h>

#include "core/region_verifier.h"
#include "isa/program_builder.h"
#include "workloads/djpeg.h"
#include "workloads/registry.h"

namespace sempe::core {
namespace {

using isa::ProgramBuilder;
using isa::Secure;

bool has(const VerifyResult& r, FindingKind k) {
  for (const auto& f : r.findings)
    if (f.kind == k) return true;
  return false;
}

isa::Program well_formed_if_else() {
  ProgramBuilder pb;
  auto taken = pb.new_label();
  auto join = pb.new_label();
  pb.li(1, 0);
  pb.bne(1, isa::kRegZero, taken, Secure::kYes);
  pb.li(2, 1);
  pb.jmp(join);
  pb.bind(taken);
  pb.li(2, 2);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  return pb.build();
}

TEST(RegionVerifier, AcceptsWellFormedRegion) {
  const auto r = verify_secure_regions(well_formed_if_else());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.secure_branches, 1u);
  EXPECT_EQ(r.max_static_nesting, 1u);
}

TEST(RegionVerifier, DetectsMissingEosjmp) {
  ProgramBuilder pb;
  auto taken = pb.new_label();
  pb.li(1, 0);
  pb.bne(1, isa::kRegZero, taken, Secure::kYes);
  pb.li(2, 1);
  pb.bind(taken);
  pb.halt();  // no eosjmp anywhere
  const auto r = verify_secure_regions(pb.build());
  EXPECT_TRUE(has(r, FindingKind::kMissingEosjmp)) << r.to_string();
}

TEST(RegionVerifier, DetectsDivInsideSecBlock) {
  ProgramBuilder pb;
  auto join = pb.new_label();
  pb.li(1, 0);
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  pb.div(2, 3, 4);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  const auto prog = pb.build();
  const auto strict = verify_secure_regions(prog);
  EXPECT_TRUE(has(strict, FindingKind::kDivInSecBlock));
  // The paper lets the user accept the risk.
  VerifyOptions lax;
  lax.allow_div = true;
  EXPECT_FALSE(has(verify_secure_regions(prog, lax),
                   FindingKind::kDivInSecBlock));
}

TEST(RegionVerifier, DetectsCallInsideSecBlock) {
  ProgramBuilder pb;
  auto join = pb.new_label();
  auto fn = pb.new_label();
  pb.li(1, 0);
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  pb.jal(isa::kRegRa, fn);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  pb.bind(fn);
  pb.ret();
  const auto r = verify_secure_regions(pb.build());
  EXPECT_TRUE(has(r, FindingKind::kCallInSecBlock));
}

TEST(RegionVerifier, DetectsIndirectJumpInsideSecBlock) {
  ProgramBuilder pb;
  auto join = pb.new_label();
  pb.li(1, 0);
  pb.li(2, 0x10000);
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  pb.jalr(isa::kRegZero, 2);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  const auto r = verify_secure_regions(pb.build());
  EXPECT_TRUE(has(r, FindingKind::kIndirectInSecBlock));
}

TEST(RegionVerifier, DetectsExcessiveStaticNesting) {
  ProgramBuilder pb;
  pb.li(1, 0);
  std::vector<ProgramBuilder::Label> joins;
  for (int i = 0; i < 4; ++i) {
    auto j = pb.new_label();
    joins.push_back(j);
    pb.bne(1, isa::kRegZero, j, Secure::kYes);
    pb.addi(5, 5, 1);
  }
  for (int i = 3; i >= 0; --i) {
    pb.bind(joins[static_cast<usize>(i)]);
    pb.eosjmp();
  }
  pb.halt();
  const auto prog = pb.build();
  VerifyOptions opt;
  opt.max_nesting = 2;
  const auto r = verify_secure_regions(prog, opt);
  EXPECT_TRUE(has(r, FindingKind::kNestingTooDeep)) << r.to_string();
  // With the default capacity (30) it verifies clean.
  const auto ok = verify_secure_regions(prog);
  EXPECT_TRUE(ok.ok()) << ok.to_string();
  EXPECT_EQ(ok.max_static_nesting, 4u);
}

TEST(RegionVerifier, FlagsLoopsOnlyWhenAsked) {
  ProgramBuilder pb;
  auto join = pb.new_label();
  pb.li(1, 0);
  pb.li(2, 10);
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  auto top = pb.new_label();
  pb.bind(top);
  pb.addi(2, 2, -1);
  pb.bne(2, isa::kRegZero, top);  // non-secret loop inside the SecBlock
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  const auto prog = pb.build();
  EXPECT_TRUE(verify_secure_regions(prog).ok());
  VerifyOptions strict;
  strict.allow_loops = false;
  EXPECT_TRUE(has(verify_secure_regions(prog, strict),
                  FindingKind::kBackwardEdgeInBlock));
}

TEST(RegionVerifier, FlagsOrphanEosjmp) {
  ProgramBuilder pb;
  pb.eosjmp();  // no secure branch owns it
  pb.halt();
  const auto r = verify_secure_regions(pb.build());
  EXPECT_TRUE(has(r, FindingKind::kUnmatchedEosjmp));
}

TEST(RegionVerifier, DivergentJoinsDetected) {
  // The two paths each find an eosJMP, but not the same one.
  ProgramBuilder pb;
  auto taken = pb.new_label();
  auto end = pb.new_label();
  pb.li(1, 0);
  pb.bne(1, isa::kRegZero, taken, Secure::kYes);
  pb.li(2, 1);
  pb.eosjmp();  // NT path's join
  pb.jmp(end);
  pb.bind(taken);
  pb.li(2, 2);
  pb.eosjmp();  // T path's (different) join
  pb.bind(end);
  pb.halt();
  const auto r = verify_secure_regions(pb.build());
  EXPECT_TRUE(has(r, FindingKind::kMissingEosjmp)) << r.to_string();
}

TEST(RegionVerifier, GeneratedMicrobenchmarksVerifyClean) {
  using namespace workloads;
  for (Kind kd : {Kind::kFibonacci, Kind::kOnes, Kind::kQuicksort,
                  Kind::kQueens}) {
    const std::string spec = std::string("micro.") + kind_name(kd) +
                             "?width=3&iters=1&secrets=0&size=" +
                             (kd == Kind::kQueens ? "4" : "8");
    const auto built =
        WorkloadRegistry::instance().build(spec, Variant::kSecure);
    VerifyOptions opt;
    opt.allow_div = true;
    const auto r = verify_secure_regions(built.program, opt);
    EXPECT_TRUE(r.ok()) << kind_name(kd) << ": " << r.to_string();
    EXPECT_EQ(r.secure_branches, 3u);
  }
}

TEST(RegionVerifier, GeneratedDjpegVerifiesClean) {
  workloads::DjpegConfig cfg;
  cfg.pixels = 64 * 64;
  cfg.scale = 16;
  const auto built = build_djpeg(cfg);
  const auto r = verify_secure_regions(built.program);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.secure_branches, 1u);  // one sJMP in the code (per block loop)
}

TEST(RegionVerifier, FindingToStringIsInformative) {
  Finding f{FindingKind::kDivInSecBlock, 0x1234, 0x1000, "why"};
  const std::string s = f.to_string();
  EXPECT_NE(s.find("div-in-secblock"), std::string::npos);
  EXPECT_NE(s.find("1234"), std::string::npos);
  EXPECT_NE(s.find("why"), std::string::npos);
}

}  // namespace
}  // namespace sempe::core
