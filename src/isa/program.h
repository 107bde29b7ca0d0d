// An executable image: encoded code plus initialized data segments.
//
// The constructor decodes every code word once into a table that fetch()
// indexes, so executing an instruction costs no bit extraction or field
// checks. A word that does not decode is only marked there: the program
// still builds, and fetch() of that word raises decode()'s SimError, only
// when (and every time) that word is fetched. A word that decodes but
// names a register of the wrong class (misclassed_operand) is marked the
// same way: fetch() returns it, so whole-program analyses still read it,
// while fetch_to_execute() raises a SimError naming the pc, the
// instruction and the operand. A Program is immutable after construction.
#pragma once

#include <string>
#include <vector>

#include "isa/instruction.h"
#include "util/check.h"
#include "util/types.h"

namespace sempe::isa {

/// Default base address of the code segment.
inline constexpr Addr kCodeBase = 0x10000;
/// Default base address of the data region the ProgramBuilder allocates in.
inline constexpr Addr kDataBase = 0x1000000;
/// Default initial stack pointer (stack grows down).
inline constexpr Addr kStackTop = 0x8000000;

struct DataSegment {
  Addr addr = 0;
  std::vector<u8> bytes;
};

/// One data-region allocation made by the ProgramBuilder. DataSegment
/// records initialized bytes only; this records *every* allocation,
/// including zero-initialized scratch, giving static analyses
/// (security/taint_lint) an allocation map for pointer provenance.
struct Allocation {
  Addr addr = 0;
  usize bytes = 0;
};

class Program {
 public:
  Program() = default;
  Program(Addr code_base, std::vector<u64> code, std::vector<DataSegment> data,
          std::vector<Allocation> allocs = {})
      : code_base_(code_base),
        code_(std::move(code)),
        data_(std::move(data)),
        allocs_(std::move(allocs)) {
    decoded_.resize(code_.size());
    for (usize i = 0; i < code_.size(); ++i)
      if (try_decode(code_[i], decoded_[i]) != DecodeStatus::kOk ||
          misclassed_operand(decoded_[i]))
        decoded_[i] = Instruction{.op = kMarked};
  }

  Addr code_base() const { return code_base_; }
  Addr entry() const { return code_base_; }
  usize num_instructions() const { return code_.size(); }
  const std::vector<u64>& code() const { return code_; }
  const std::vector<DataSegment>& data() const { return data_; }

  /// Every builder allocation, sorted by address (the builder's data
  /// cursor only moves up). Empty for hand-constructed programs.
  const std::vector<Allocation>& allocations() const { return allocs_; }

  /// The allocation containing addr, or nullptr. Zero-size allocations
  /// never match.
  const Allocation* allocation_of(Addr addr) const {
    for (const Allocation& a : allocs_)
      if (addr >= a.addr && addr < a.addr + a.bytes) return &a;
    return nullptr;
  }

  /// Address of instruction i.
  Addr pc_of(usize i) const { return code_base_ + i * kInstrBytes; }

  /// True if pc falls inside the code segment.
  bool contains(Addr pc) const {
    return pc >= code_base_ && pc < code_base_ + code_.size() * kInstrBytes &&
           (pc - code_base_) % kInstrBytes == 0;
  }

  /// The decoded instruction at pc. Throws SimError on a PC outside the
  /// code segment (the simulated machine has no self-modifying code), or
  /// decode()'s SimError if the word at pc does not decode.
  Instruction fetch(Addr pc) const {
    const usize i = index_of(pc);
    if (decoded_[i].op == kMarked) [[unlikely]]
      return decode(code_[i]);  // throws unless only a class is wrong
    return decoded_[i];
  }

  /// fetch() for execution, at the same cost: also raises a SimError
  /// naming the pc, the instruction and the operand when the word misuses
  /// a register class (e.g. `add x1, f1, x2`).
  Instruction fetch_to_execute(Addr pc) const {
    const usize i = index_of(pc);
    if (decoded_[i].op == kMarked) [[unlikely]]
      reject_marked(pc);
    return decoded_[i];
  }

  /// Multi-line disassembly listing (for debugging and tests).
  std::string disassemble() const;

 private:
  /// Marks a decoded_ slot whose word does not decode or misuses a
  /// register class.
  static constexpr Opcode kMarked = Opcode::kCount;

  usize index_of(Addr pc) const {
    SEMPE_CHECK_MSG(contains(pc), "instruction fetch outside code segment at 0x"
                                      << std::hex << pc);
    return (pc - code_base_) / kInstrBytes;
  }
  /// Throws the SimError of the marked word at pc.
  [[noreturn, gnu::cold]] void reject_marked(Addr pc) const;

  Addr code_base_ = kCodeBase;
  std::vector<u64> code_;
  std::vector<Instruction> decoded_;  // decode(code_[i]), or kMarked
  std::vector<DataSegment> data_;
  std::vector<Allocation> allocs_;
};

}  // namespace sempe::isa
