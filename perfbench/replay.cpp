#include "replay.h"

#include <vector>

#include "branch/ittage.h"
#include "branch/tage.h"
#include "mem/hierarchy.h"
#include "mem/main_memory.h"
#include "util/clock.h"

namespace perfbench {

using namespace sempe;

namespace {

// The predictor calls Pipeline::handle_control makes, without the BTB,
// RAS and fetch-floor bookkeeping around them. Returns whether `op` made
// any.
bool replay_branch(const cpu::DynOp& op, branch::Tage& tage,
                   branch::ItTage& ittage) {
  if (op.is_cond_branch) {
    if (op.is_secure_branch) return false;  // sJMP never touches a predictor
    tage.predict(op.pc);
    tage.update(op.pc, op.branch_taken);
    return true;
  }
  if (op.ins.op == isa::Opcode::kJal) {
    tage.note_unconditional(op.pc);
    return true;
  }
  if (op.ins.op == isa::Opcode::kJalr) {
    tage.note_unconditional(op.pc);
    const bool is_return =
        op.ins.rs1 == isa::kRegRa && op.ins.rd == isa::kRegZero;
    if (!is_return) {
      ittage.predict(op.pc);
      ittage.update(op.pc, op.next_pc);
    }
    return true;
  }
  return false;
}

}  // namespace

Replay replay_run(const isa::Program& program, const sim::RunConfig& cfg) {
  mem::MainMemory memory;
  cpu::FunctionalCore core(&program, &memory, cfg.core);
  pipeline::Pipeline pipe(&core, cfg.pipe);
  branch::Tage tage(cfg.pipe.tage);
  branch::ItTage ittage(cfg.pipe.ittage);
  mem::Hierarchy hier(cfg.pipe.memory);
  const Addr line_mask = ~static_cast<Addr>(cfg.pipe.memory.il1.line_bytes - 1);
  Addr cur_line = ~0ull;

  Replay r;
  std::vector<cpu::DynOp> chunk;
  chunk.reserve(kReplayChunk);
  while (!core.halted()) {
    chunk.clear();
    const u64 t0 = mono_ns();
    while (chunk.size() < kReplayChunk && !core.halted())
      chunk.push_back(core.step());
    const u64 t1 = mono_ns();
    for (const cpu::DynOp& op : chunk) pipe.process(op);
    const u64 t2 = mono_ns();
    u64 branch_ops = 0;
    for (const cpu::DynOp& op : chunk)
      branch_ops += replay_branch(op, tage, ittage) ? 1 : 0;
    const u64 t3 = mono_ns();
    for (const cpu::DynOp& op : chunk) {
      const Addr line = op.pc & line_mask;
      if (line != cur_line) {
        hier.access_instr(op.pc);
        cur_line = line;
        ++r.mem_calls;
      }
      if (op.is_mem) {
        hier.access_data(op.mem_addr, op.is_store, op.pc);
        ++r.mem_calls;
      }
    }
    const u64 t4 = mono_ns();
    r.cpu_ns += t1 - t0;
    r.pipeline_ns += t2 - t1;
    r.branch_ns += t3 - t2;
    r.mem_ns += t4 - t3;
    r.branch_ops += branch_ops;
    for (const cpu::DynOp& op : chunk) {
      r.spm_bytes += op.spm_bytes;
      if (op.event == cpu::SempeEvent::kEosSecond) ++r.secure_regions;
    }
    r.instrs += chunk.size();
  }

  r.pipe = pipe.stats();
  r.tage_lookups = tage.lookups();
  r.tage_mispredicts = tage.mispredicts();
  r.ittage_lookups = ittage.lookups();
  r.ittage_mispredicts = ittage.mispredicts();
  r.il1_accesses = hier.il1().demand_accesses();
  r.il1_misses = hier.il1().demand_misses();
  r.dl1_accesses = hier.dl1().demand_accesses();
  r.dl1_misses = hier.dl1().demand_misses();
  r.l2_accesses = hier.l2().demand_accesses();
  r.l2_misses = hier.l2().demand_misses();
  return r;
}

Replay& Replay::operator+=(const Replay& o) {
  instrs += o.instrs;
  cpu_ns += o.cpu_ns;
  pipeline_ns += o.pipeline_ns;
  branch_ns += o.branch_ns;
  mem_ns += o.mem_ns;
  secure_regions += o.secure_regions;
  spm_bytes += o.spm_bytes;
  branch_ops += o.branch_ops;
  tage_lookups += o.tage_lookups;
  tage_mispredicts += o.tage_mispredicts;
  ittage_lookups += o.ittage_lookups;
  ittage_mispredicts += o.ittage_mispredicts;
  mem_calls += o.mem_calls;
  il1_accesses += o.il1_accesses;
  il1_misses += o.il1_misses;
  dl1_accesses += o.dl1_accesses;
  dl1_misses += o.dl1_misses;
  l2_accesses += o.l2_accesses;
  l2_misses += o.l2_misses;
  return *this;
}

std::string fidelity_mismatch(const Replay& r,
                              const pipeline::PipelineStats& full) {
  struct Field {
    const char* name;
    u64 replayed;
    u64 expected;
  };
  const Field fields[] = {
      {"instructions", r.instrs, full.instructions},
      {"pipeline cycles", r.pipe.cycles, full.cycles},
      {"pipeline instructions", r.pipe.instructions, full.instructions},
      {"pipeline branch_mispredicts", r.pipe.branch_mispredicts,
       full.branch_mispredicts},
      {"pipeline indirect_mispredicts", r.pipe.indirect_mispredicts,
       full.indirect_mispredicts},
      {"pipeline il1_accesses", r.pipe.il1_accesses, full.il1_accesses},
      {"standalone TAGE mispredicts", r.tage_mispredicts,
       full.branch_mispredicts},
      {"standalone IL1 accesses", r.il1_accesses, full.il1_accesses},
      {"standalone DL1 accesses", r.dl1_accesses,
       full.dl1_accesses + full.store_forwards},
  };
  for (const Field& f : fields)
    if (f.replayed != f.expected)
      return std::string(f.name) + ": replayed " + std::to_string(f.replayed) +
             ", full run " + std::to_string(f.expected);
  return "";
}

}  // namespace perfbench
