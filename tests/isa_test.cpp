#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/functional_core.h"
#include "isa/instruction.h"
#include "isa/program_builder.h"
#include "util/bits.h"

namespace sempe::isa {
namespace {

TEST(Encoding, RoundTripAllOpcodes) {
  for (usize o = 0; o < kNumOpcodes; ++o) {
    Instruction ins;
    ins.op = static_cast<Opcode>(o);
    ins.rd = 5;
    ins.rs1 = 17;
    ins.rs2 = 40;  // fp register index
    ins.imm = -123456;
    ins.secure = is_cond_branch(ins.op);
    const u64 w = encode(ins);
    EXPECT_EQ(decode(w), ins) << op_name(ins.op);
  }
}

TEST(Encoding, SecureBitPreserved) {
  Instruction ins{.op = Opcode::kBeq, .rs1 = 1, .rs2 = 2, .imm = 64,
                  .secure = true};
  EXPECT_TRUE(decode(encode(ins)).secure);
  ins.secure = false;
  EXPECT_FALSE(decode(encode(ins)).secure);
}

TEST(Encoding, ImmediateBoundsEnforced) {
  Instruction ins{.op = Opcode::kLimm, .rd = 1};
  ins.imm = INT32_MAX;
  EXPECT_NO_THROW(encode(ins));
  ins.imm = INT32_MIN;
  EXPECT_NO_THROW(encode(ins));
  ins.imm = static_cast<i64>(INT32_MAX) + 1;
  EXPECT_THROW(encode(ins), SimError);
  ins.imm = static_cast<i64>(INT32_MIN) - 1;
  EXPECT_THROW(encode(ins), SimError);
}

TEST(Encoding, RejectsInvalidOpcodeAndReservedBits) {
  EXPECT_THROW(decode(0xff), SimError);                   // bad opcode
  const u64 good = encode({.op = Opcode::kNop});
  EXPECT_THROW(decode(good | (1ull << 27)), SimError);    // reserved bit
}

TEST(Encoding, RejectsBadRegister) {
  Instruction ins{.op = Opcode::kAdd, .rd = 48, .rs1 = 0, .rs2 = 0};
  EXPECT_THROW(encode(ins), SimError);
}

TEST(Encoding, NegativeImmediateSignExtends) {
  Instruction ins{.op = Opcode::kAddi, .rd = 1, .rs1 = 2, .imm = -1};
  EXPECT_EQ(decode(encode(ins)).imm, -1);
}

TEST(Disasm, Format) {
  Instruction ins{.op = Opcode::kBeq, .rs1 = 3, .rs2 = 0, .imm = -24,
                  .secure = true};
  EXPECT_EQ(ins.to_string(), "sjmp.beq x3, x0, -24");
  Instruction add{.op = Opcode::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3};
  EXPECT_EQ(add.to_string(), "add x1, x2, x3");
  Instruction f{.op = Opcode::kFadd, .rd = fp_reg(0), .rs1 = fp_reg(1),
                .rs2 = fp_reg(2)};
  EXPECT_EQ(f.to_string(), "fadd f0, f1, f2");
}

TEST(Builder, LabelsAndBranchFixups) {
  ProgramBuilder pb;
  auto top = pb.new_label();
  pb.li(1, 3);
  pb.bind(top);
  pb.addi(1, 1, -1);
  pb.bne(1, kRegZero, top);
  pb.halt();
  Program p = pb.build();
  ASSERT_EQ(p.num_instructions(), 4u);
  const Instruction br = p.fetch(p.pc_of(2));
  EXPECT_EQ(br.op, Opcode::kBne);
  EXPECT_EQ(br.imm, -8);  // back to instruction 1
}

TEST(Builder, ForwardLabel) {
  ProgramBuilder pb;
  auto skip = pb.new_label();
  pb.beq(kRegZero, kRegZero, skip);
  pb.li(1, 99);
  pb.bind(skip);
  pb.halt();
  Program p = pb.build();
  EXPECT_EQ(p.fetch(p.pc_of(0)).imm, 16);
}

TEST(Builder, UnboundLabelFails) {
  ProgramBuilder pb;
  auto l = pb.new_label();
  pb.jmp(l);
  EXPECT_THROW(pb.build(), SimError);
}

TEST(Builder, DoubleBindFails) {
  ProgramBuilder pb;
  auto l = pb.new_label();
  pb.bind(l);
  EXPECT_THROW(pb.bind(l), SimError);
}

TEST(Builder, DataAllocationAlignmentAndInit) {
  ProgramBuilder pb;
  const Addr a = pb.alloc(10, 64);
  EXPECT_EQ(a % 64, 0u);
  const Addr b = pb.alloc_words({1, -2, 3});
  pb.halt();
  Program p = pb.build();
  ASSERT_EQ(p.data().size(), 1u);
  EXPECT_EQ(p.data()[0].addr, b);
  EXPECT_EQ(p.data()[0].bytes.size(), 24u);
  // little-endian check of -2
  EXPECT_EQ(p.data()[0].bytes[8], 0xfe);
  EXPECT_EQ(p.data()[0].bytes[15], 0xff);
}

TEST(Builder, PokeWord) {
  ProgramBuilder pb;
  const Addr a = pb.alloc_words({7, 8});
  pb.poke_word(a + 8, 42);
  pb.halt();
  Program p = pb.build();
  EXPECT_EQ(p.data()[0].bytes[8], 42);
}

TEST(Builder, Li64EmitsForLargeConstants) {
  ProgramBuilder pb;
  pb.li64(1, 0x123456789abcdef0ll);
  pb.halt();
  Program p = pb.build();
  EXPECT_GT(p.num_instructions(), 2u);  // multi-instruction expansion
}

TEST(Builder, LiRejectsOutOfRange) {
  ProgramBuilder pb;
  EXPECT_THROW(pb.li(1, 1ll << 40), SimError);
}

TEST(Program, FetchOutsideSegmentThrows) {
  ProgramBuilder pb;
  pb.halt();
  Program p = pb.build();
  EXPECT_THROW(p.fetch(p.code_base() + 8), SimError);
  EXPECT_THROW(p.fetch(p.code_base() + 1), SimError);  // misaligned
}

/// decode(word)'s SimError text, or "" if the word decodes.
std::string decode_error(u64 word) {
  try {
    decode(word);
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

// Program decodes its code once, at construction. fetch() must still agree
// with decode() word for word: the same Instruction, or the same SimError
// text, raised only when the bad word is fetched.
TEST(Program, FetchMatchesDecodeWordForWord) {
  std::vector<u64> words;
  for (usize o = 0; o < kNumOpcodes; ++o) {
    const Opcode op = static_cast<Opcode>(o);
    words.push_back(encode({.op = op, .rd = 5, .rs1 = 17, .rs2 = 40,
                            .imm = -123456, .secure = is_cond_branch(op)}));
    words.push_back(encode({.op = op, .rd = 47, .rs1 = 0, .rs2 = 31,
                            .imm = INT32_MAX, .secure = true}));
  }
  const usize num_valid = words.size();
  const u64 good = encode({.op = Opcode::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3});
  words.push_back(bits_set(good, 0, 8, 0xff));         // bad opcode byte
  words.push_back(bits_set(good, 0, 8, kNumOpcodes));  // first unused opcode
  words.push_back(good | (1ull << 27));                // reserved bit, low
  words.push_back(good | (1ull << 31));                // reserved bit, high
  words.push_back(bits_set(good, 9, 6, 48));           // bad rd
  words.push_back(bits_set(good, 15, 6, 63));          // bad rs1
  words.push_back(bits_set(good, 21, 6, 50));          // bad rs2

  const Program p(kCodeBase, words, {});
  usize rejected = 0;
  for (usize i = 0; i < words.size(); ++i) {
    const std::string want = decode_error(words[i]);
    if (want.empty()) {
      EXPECT_EQ(p.fetch(p.pc_of(i)), decode(words[i])) << "word " << i;
      // Execution additionally refuses a register-class misuse.
      if (misclassed_operand(decode(words[i])))
        EXPECT_THROW(p.fetch_to_execute(p.pc_of(i)), SimError) << "word " << i;
      else
        EXPECT_EQ(p.fetch_to_execute(p.pc_of(i)), decode(words[i]))
            << "word " << i;
      continue;
    }
    ++rejected;
    for (int twice = 0; twice < 2; ++twice) {  // marked, not forgotten
      try {
        p.fetch(p.pc_of(i));
        ADD_FAILURE() << "word " << i << " fetched without error";
      } catch (const SimError& e) {
        EXPECT_EQ(std::string(e.what()), want) << "word " << i;
      }
    }
  }
  EXPECT_EQ(rejected, words.size() - num_valid);
}

// An invalid or misclassed word that is never executed does not stop the
// program.
TEST(Program, UnexecutedInvalidWordRunsToHalt) {
  const std::vector<u64> words = {
      encode({.op = Opcode::kLimm, .rd = 1, .imm = 7}),
      encode({.op = Opcode::kJal, .rd = 0, .imm = 4 * i64{kInstrBytes}}),
      0xff,                                                   // bad opcode
      bits_set(encode({.op = Opcode::kNop}), 9, 6, 60),       // bad rd
      encode({.op = Opcode::kAdd, .rd = 1, .rs1 = fp_reg(1)}),  // f1 as int
      encode({.op = Opcode::kHalt}),
  };
  const Program p(kCodeBase, words, {});
  mem::MainMemory memory;
  cpu::FunctionalCore core(&p, &memory);
  EXPECT_EQ(core.run_to_halt(), 3u);
  EXPECT_EQ(core.state().get_int(1), 7);
}

TEST(Instruction, MisclassedOperandFollowsTheOpcode) {
  const Reg x1 = int_reg(1), x2 = int_reg(2), f1 = fp_reg(1), f2 = fp_reg(2);
  const auto bad = [](Instruction ins) { return misclassed_operand(ins); };
  // Every operand of its class: nothing to report.
  EXPECT_EQ(bad({.op = Opcode::kAdd, .rd = x1, .rs1 = x2, .rs2 = x1}),
            std::nullopt);
  EXPECT_EQ(bad({.op = Opcode::kFadd, .rd = f1, .rs1 = f2, .rs2 = f1}),
            std::nullopt);
  EXPECT_EQ(bad({.op = Opcode::kI2f, .rd = f1, .rs1 = x2}), std::nullopt);
  EXPECT_EQ(bad({.op = Opcode::kF2i, .rd = x1, .rs1 = f2}), std::nullopt);
  // Operands the opcode does not use are never checked.
  EXPECT_EQ(bad({.op = Opcode::kLimm, .rd = x1, .rs1 = f1, .rs2 = f2}),
            std::nullopt);
  EXPECT_EQ(bad({.op = Opcode::kHalt, .rd = f1}), std::nullopt);
  // The first wrong operand, sources before the destination.
  EXPECT_EQ(bad({.op = Opcode::kAdd, .rd = x1, .rs1 = f1, .rs2 = x2}), f1);
  EXPECT_EQ(bad({.op = Opcode::kSt, .rs1 = x1, .rs2 = f2}), f2);
  EXPECT_EQ(bad({.op = Opcode::kFmul, .rd = x1, .rs1 = f1, .rs2 = f2}), x1);
  EXPECT_EQ(bad({.op = Opcode::kI2f, .rd = f1, .rs1 = f2}), f2);
  EXPECT_EQ(bad({.op = Opcode::kF2i, .rd = f1, .rs1 = f2}), f1);
  EXPECT_EQ(bad({.op = Opcode::kJal, .rd = f1}), f1);
}

TEST(Program, DisassembleListsAllInstructions) {
  ProgramBuilder pb;
  pb.li(1, 5);
  pb.halt();
  Program p = pb.build();
  const std::string d = p.disassemble();
  EXPECT_NE(d.find("limm x1, 5"), std::string::npos);
  EXPECT_NE(d.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace sempe::isa
