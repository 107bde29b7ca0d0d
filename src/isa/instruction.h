// Instruction representation and binary encoding.
//
// Every instruction encodes to one 64-bit word:
//
//   bits [7:0]    opcode
//   bit  [8]      secure prefix (SecPrefix; meaningful on branches/EOSJMP)
//   bits [14:9]   rd
//   bits [20:15]  rs1
//   bits [26:21]  rs2
//   bits [31:27]  reserved (must be zero)
//   bits [63:32]  imm (signed 32-bit)
//
// The secure bit is the analogue of the paper's 0x2e SecPrefix: a legacy
// decoder ignores it (FunctionalCore in legacy mode treats secure branches
// as ordinary branches and EOSJMP as NOP), which provides the backward
// compatibility property of Section IV-C.
#pragma once

#include <optional>
#include <string>

#include "isa/opcode.h"
#include "isa/reg.h"
#include "util/types.h"

namespace sempe::isa {

/// Instruction size in bytes; PCs advance by this amount.
inline constexpr u64 kInstrBytes = 8;

struct Instruction {
  Opcode op = Opcode::kNop;
  Reg rd = 0;
  Reg rs1 = 0;
  Reg rs2 = 0;
  i64 imm = 0;      // sign-extended from 32 bits on decode
  bool secure = false;

  bool operator==(const Instruction&) const = default;

  /// True for a secure jump (SecPrefix'd conditional branch).
  bool is_sjmp() const { return secure && is_cond_branch(op); }
  bool is_eosjmp() const { return op == Opcode::kEosjmp; }

  /// Human-readable disassembly, e.g. "sjmp.beq x3, x0, -24".
  std::string to_string() const;
};

/// Encode to the 64-bit machine word. Throws SimError if imm does not fit
/// in 32 bits or a register index is out of range.
u64 encode(const Instruction& ins);

/// Why a machine word does not decode (kOk when it does).
enum class DecodeStatus : u8 { kOk, kBadOpcode, kReservedBits, kBadRegister };

/// Decode a 64-bit machine word without throwing. On kOk `out` holds the
/// instruction; otherwise its contents are unspecified.
DecodeStatus try_decode(u64 word, Instruction& out);

/// Decode a 64-bit machine word. Throws SimError on an invalid opcode,
/// register index, or nonzero reserved bits.
Instruction decode(u64 word);

/// The first register operand `ins.op` reads or writes whose class is
/// wrong for it: an FP register where the opcode takes an integer one
/// (f1 in `add x1, f1, x2`), or the reverse. nullopt when every operand
/// the opcode uses has its class. Such a word decodes, but executing it
/// is a malformed-program error.
std::optional<Reg> misclassed_operand(const Instruction& ins);

}  // namespace sempe::isa
