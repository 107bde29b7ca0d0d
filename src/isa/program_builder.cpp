#include "isa/program_builder.h"

#include <sstream>

namespace sempe::isa {

ProgramBuilder::Label ProgramBuilder::new_label() {
  label_addrs_.push_back(-1);
  return Label{static_cast<u32>(label_addrs_.size() - 1)};
}

void ProgramBuilder::bind(Label l) {
  SEMPE_CHECK(l.id < label_addrs_.size());
  SEMPE_CHECK_MSG(label_addrs_[l.id] < 0, "label bound twice");
  label_addrs_[l.id] = static_cast<i64>(here());
}

Addr ProgramBuilder::label_addr(Label l) const {
  SEMPE_CHECK(l.id < label_addrs_.size());
  SEMPE_CHECK_MSG(label_addrs_[l.id] >= 0, "label_addr() on unbound label");
  return static_cast<Addr>(label_addrs_[l.id]);
}

Addr ProgramBuilder::emit(const Instruction& ins) {
  SEMPE_CHECK_MSG(!built_, "emit() after build()");
  const Addr pc = here();
  code_.push_back(ins);
  return pc;
}

void ProgramBuilder::br(Opcode op, Reg a, Reg b, Label t, Secure s) {
  SEMPE_CHECK(t.id < label_addrs_.size());
  Instruction ins;
  ins.op = op;
  ins.secure = (s == Secure::kYes);
  if (op == Opcode::kJal) {
    ins.rd = a;
  } else {
    ins.rs1 = a;
    ins.rs2 = b;
  }
  fixups_.push_back({code_.size(), t.id});
  emit(ins);  // imm patched in build()
}

void ProgramBuilder::li(Reg rd, i64 imm) {
  SEMPE_CHECK_MSG(imm >= INT32_MIN && imm <= INT32_MAX,
                  "li immediate out of 32-bit range; use li64");
  emit({.op = Opcode::kLimm, .rd = rd, .imm = imm});
}

void ProgramBuilder::li64(Reg rd, i64 imm) {
  if (imm >= INT32_MIN && imm <= INT32_MAX) {
    li(rd, imm);
    return;
  }
  // Build from the high 32 bits, shift, then OR in the low 32 bits in two
  // 16-bit non-negative chunks (ori sign-extends its immediate).
  li(rd, imm >> 32);
  slli(rd, rd, 16);
  ori(rd, rd, (imm >> 16) & 0xffff);
  slli(rd, rd, 16);
  ori(rd, rd, imm & 0xffff);
}

Addr ProgramBuilder::alloc(usize size, usize align) {
  SEMPE_CHECK(align > 0 && (align & (align - 1)) == 0);
  data_cursor_ = (data_cursor_ + align - 1) & ~static_cast<Addr>(align - 1);
  const Addr addr = data_cursor_;
  data_cursor_ += size;
  allocs_.push_back({addr, size});
  return addr;
}

Addr ProgramBuilder::alloc_bytes(const std::vector<u8>& bytes) {
  const Addr addr = alloc(bytes.size(), 8);
  data_.push_back({addr, bytes});
  return addr;
}

Addr ProgramBuilder::alloc_words(const std::vector<i64>& words) {
  std::vector<u8> bytes(words.size() * 8);
  for (usize i = 0; i < words.size(); ++i) {
    const u64 w = static_cast<u64>(words[i]);
    for (usize b = 0; b < 8; ++b) bytes[i * 8 + b] = static_cast<u8>(w >> (8 * b));
  }
  return alloc_bytes(bytes);
}

void ProgramBuilder::poke_word(Addr addr, i64 value) {
  for (auto& seg : data_) {
    if (addr >= seg.addr && addr + 8 <= seg.addr + seg.bytes.size()) {
      const usize off = addr - seg.addr;
      const u64 w = static_cast<u64>(value);
      for (usize b = 0; b < 8; ++b) seg.bytes[off + b] = static_cast<u8>(w >> (8 * b));
      return;
    }
  }
  // Not inside an existing initialized segment: create a fresh 8-byte one.
  std::vector<u8> bytes(8);
  const u64 w = static_cast<u64>(value);
  for (usize b = 0; b < 8; ++b) bytes[b] = static_cast<u8>(w >> (8 * b));
  data_.push_back({addr, std::move(bytes)});
}

Program ProgramBuilder::build() {
  SEMPE_CHECK_MSG(!built_, "build() called twice");
  for (const Fixup& f : fixups_) {
    SEMPE_CHECK_MSG(label_addrs_[f.label_id] >= 0,
                    "unbound label used by instruction at index "
                        << f.instr_index);
    const Addr pc = code_base_ + f.instr_index * kInstrBytes;
    code_[f.instr_index].imm =
        label_addrs_[f.label_id] - static_cast<i64>(pc);
  }
  std::vector<u64> words;
  words.reserve(code_.size());
  for (const Instruction& ins : code_) words.push_back(encode(ins));
  built_ = true;
  return Program(code_base_, std::move(words), std::move(data_),
                 std::move(allocs_));
}

void Program::reject_marked(Addr pc) const {
  const Instruction ins = decode(code_[index_of(pc)]);  // throws if invalid
  const std::optional<Reg> r = misclassed_operand(ins);
  SEMPE_CHECK(r.has_value());
  std::ostringstream os;
  os << "pc 0x" << std::hex << pc << ": '" << ins.to_string() << "' uses "
     << reg_name(*r) << " where it takes "
     << (is_fp_reg(*r) ? "an integer" : "an FP") << " register";
  throw SimError(os.str());
}

std::string Program::disassemble() const {
  std::ostringstream os;
  for (usize i = 0; i < code_.size(); ++i) {
    os << std::hex << "0x" << pc_of(i) << std::dec << ":  "
       << decode(code_[i]).to_string() << '\n';
  }
  return os.str();
}

}  // namespace sempe::isa
