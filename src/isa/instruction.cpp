#include "isa/instruction.h"

#include <array>
#include <sstream>

#include "util/bits.h"
#include "util/check.h"

namespace sempe::isa {

namespace {

// One row per opcode, in enum order.
//                         name     class                 rd     rs1    rs2    rdsRd  imm
constexpr std::array<OpInfo, kNumOpcodes> kOpTable = {{
    {"add", OpClass::kIntAlu, true, true, true, false, false},
    {"sub", OpClass::kIntAlu, true, true, true, false, false},
    {"mul", OpClass::kIntMul, true, true, true, false, false},
    {"div", OpClass::kIntDiv, true, true, true, false, false},
    {"rem", OpClass::kIntDiv, true, true, true, false, false},
    {"and", OpClass::kIntAlu, true, true, true, false, false},
    {"or", OpClass::kIntAlu, true, true, true, false, false},
    {"xor", OpClass::kIntAlu, true, true, true, false, false},
    {"sll", OpClass::kIntAlu, true, true, true, false, false},
    {"srl", OpClass::kIntAlu, true, true, true, false, false},
    {"sra", OpClass::kIntAlu, true, true, true, false, false},
    {"slt", OpClass::kIntAlu, true, true, true, false, false},
    {"sltu", OpClass::kIntAlu, true, true, true, false, false},
    {"seq", OpClass::kIntAlu, true, true, true, false, false},
    {"sne", OpClass::kIntAlu, true, true, true, false, false},
    {"addi", OpClass::kIntAlu, true, true, false, false, true},
    {"andi", OpClass::kIntAlu, true, true, false, false, true},
    {"ori", OpClass::kIntAlu, true, true, false, false, true},
    {"xori", OpClass::kIntAlu, true, true, false, false, true},
    {"slli", OpClass::kIntAlu, true, true, false, false, true},
    {"srli", OpClass::kIntAlu, true, true, false, false, true},
    {"srai", OpClass::kIntAlu, true, true, false, false, true},
    {"slti", OpClass::kIntAlu, true, true, false, false, true},
    {"limm", OpClass::kIntAlu, true, false, false, false, true},
    {"cmov", OpClass::kIntAlu, true, true, true, true, false},
    {"fadd", OpClass::kFpAlu, true, true, true, false, false},
    {"fsub", OpClass::kFpAlu, true, true, true, false, false},
    {"fmul", OpClass::kFpAlu, true, true, true, false, false},
    {"fdiv", OpClass::kFpDiv, true, true, true, false, false},
    {"i2f", OpClass::kFpAlu, true, true, false, false, false},
    {"f2i", OpClass::kFpAlu, true, true, false, false, false},
    {"fmov", OpClass::kFpAlu, true, true, false, false, false},
    {"ld", OpClass::kLoad, true, true, false, false, true},
    {"lw", OpClass::kLoad, true, true, false, false, true},
    {"lbu", OpClass::kLoad, true, true, false, false, true},
    {"st", OpClass::kStore, false, true, true, false, true},
    {"sw", OpClass::kStore, false, true, true, false, true},
    {"sb", OpClass::kStore, false, true, true, false, true},
    {"beq", OpClass::kBranch, false, true, true, false, true},
    {"bne", OpClass::kBranch, false, true, true, false, true},
    {"blt", OpClass::kBranch, false, true, true, false, true},
    {"bge", OpClass::kBranch, false, true, true, false, true},
    {"bltu", OpClass::kBranch, false, true, true, false, true},
    {"bgeu", OpClass::kBranch, false, true, true, false, true},
    {"jal", OpClass::kJump, true, false, false, false, true},
    {"jalr", OpClass::kJumpInd, true, true, false, false, true},
    {"eosjmp", OpClass::kNop, false, false, false, false, false},
    {"nop", OpClass::kNop, false, false, false, false, false},
    {"halt", OpClass::kNop, false, false, false, false, false},
}};

void check_reg(Reg r) {
  SEMPE_CHECK_MSG(r < kNumArchRegs, "register index " << int(r)
                                                      << " out of range");
}

}  // namespace

const OpInfo& op_info(Opcode op) {
  SEMPE_CHECK(static_cast<usize>(op) < kNumOpcodes);
  return kOpTable[static_cast<usize>(op)];
}

u64 encode(const Instruction& ins) {
  SEMPE_CHECK(static_cast<usize>(ins.op) < kNumOpcodes);
  check_reg(ins.rd);
  check_reg(ins.rs1);
  check_reg(ins.rs2);
  SEMPE_CHECK_MSG(
      ins.imm >= INT32_MIN && ins.imm <= INT32_MAX,
      "immediate " << ins.imm << " does not fit in 32 bits (" << ins.to_string()
                   << ")");
  u64 w = 0;
  w = bits_set(w, 0, 8, static_cast<u64>(ins.op));
  w = bits_set(w, 8, 1, ins.secure ? 1 : 0);
  w = bits_set(w, 9, 6, ins.rd);
  w = bits_set(w, 15, 6, ins.rs1);
  w = bits_set(w, 21, 6, ins.rs2);
  w = bits_set(w, 32, 32, static_cast<u64>(ins.imm) & low_mask(32));
  return w;
}

DecodeStatus try_decode(u64 word, Instruction& out) {
  const u64 opc = bits_of(word, 0, 8);
  if (opc >= kNumOpcodes) return DecodeStatus::kBadOpcode;
  if (bits_of(word, 27, 5) != 0) return DecodeStatus::kReservedBits;
  out.op = static_cast<Opcode>(opc);
  out.secure = bits_of(word, 8, 1) != 0;
  out.rd = static_cast<Reg>(bits_of(word, 9, 6));
  out.rs1 = static_cast<Reg>(bits_of(word, 15, 6));
  out.rs2 = static_cast<Reg>(bits_of(word, 21, 6));
  out.imm = sign_extend(bits_of(word, 32, 32), 32);
  if (out.rd >= kNumArchRegs || out.rs1 >= kNumArchRegs ||
      out.rs2 >= kNumArchRegs)
    return DecodeStatus::kBadRegister;
  return DecodeStatus::kOk;
}

Instruction decode(u64 word) {
  Instruction ins;
  const DecodeStatus s = try_decode(word, ins);
  SEMPE_CHECK_MSG(s != DecodeStatus::kBadOpcode,
                  "invalid opcode byte " << bits_of(word, 0, 8));
  SEMPE_CHECK_MSG(s != DecodeStatus::kReservedBits, "nonzero reserved bits");
  if (s == DecodeStatus::kBadRegister) {
    check_reg(ins.rd);
    check_reg(ins.rs1);
    check_reg(ins.rs2);
  }
  return ins;
}

std::optional<Reg> misclassed_operand(const Instruction& ins) {
  const OpInfo& info = op_info(ins.op);
  // Which operands are FP; every other operand an opcode uses is integer.
  bool fp_rd = false, fp_rs1 = false, fp_rs2 = false;
  switch (ins.op) {
    case Opcode::kFadd:
    case Opcode::kFsub:
    case Opcode::kFmul:
    case Opcode::kFdiv:
      fp_rd = fp_rs1 = fp_rs2 = true;
      break;
    case Opcode::kFmov:
      fp_rd = fp_rs1 = true;
      break;
    case Opcode::kI2f:
      fp_rd = true;
      break;
    case Opcode::kF2i:
      fp_rs1 = true;
      break;
    default:
      break;
  }
  const auto wrong = [](bool used, bool fp, Reg r) {
    return used && (fp ? !is_fp_reg(r) : !is_int_reg(r));
  };
  if (wrong(info.uses_rs1, fp_rs1, ins.rs1)) return ins.rs1;
  if (wrong(info.uses_rs2, fp_rs2, ins.rs2)) return ins.rs2;
  if (wrong(info.uses_rd, fp_rd, ins.rd)) return ins.rd;
  return std::nullopt;
}

std::string Instruction::to_string() const {
  const OpInfo& info = op_info(op);
  std::ostringstream os;
  if (secure && is_cond_branch(op)) os << "sjmp.";
  os << info.name;
  bool first = true;
  auto sep = [&] {
    os << (first ? " " : ", ");
    first = false;
  };
  if (info.op_class == OpClass::kStore) {
    // Match the assembler's operand order: st value, base, offset.
    sep();
    os << reg_name(rs2);
    sep();
    os << reg_name(rs1);
    sep();
    os << imm;
    return os.str();
  }
  if (info.uses_rd) {
    sep();
    os << reg_name(rd);
  }
  if (info.uses_rs1) {
    sep();
    os << reg_name(rs1);
  }
  if (info.uses_rs2) {
    sep();
    os << reg_name(rs2);
  }
  if (info.has_imm) {
    sep();
    os << imm;
  }
  return os.str();
}

}  // namespace sempe::isa
