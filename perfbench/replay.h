// Chunked component replay: the per-layer half of the benchmark.
//
// One simulated run is re-executed with its layers pulled apart. The
// functional core steps kReplayChunk DynOps into a buffer; that same chunk
// is then fed, in turn, to a fresh pipeline::Pipeline (the whole timing
// model, which itself calls the predictors and the caches), to a
// standalone TAGE/ITTAGE pair, and to a standalone mem::Hierarchy. Each
// stage is timed on its own, so the host time of every layer is measured
// where its work happens, with no spans inside the simulator.
//
// Recording happens in bounded chunks because a DynOp is ~96 B: a whole
// djpeg run would take gigabytes and slow the functional core down
// several-fold.
#pragma once

#include <string>

#include "cpu/functional_core.h"
#include "isa/program.h"
#include "pipeline/pipeline.h"
#include "sim/simulator.h"

namespace perfbench {

using sempe::u64;

inline constexpr sempe::usize kReplayChunk = 4096;

/// What one replayed run measured, per layer.
struct Replay {
  u64 instrs = 0;

  // Host nanoseconds spent in each stage.
  u64 cpu_ns = 0;       // FunctionalCore::step, filling the chunks
  u64 pipeline_ns = 0;  // Pipeline::process, branch and mem calls included
  u64 branch_ns = 0;    // standalone TAGE/ITTAGE
  u64 mem_ns = 0;       // standalone Hierarchy

  // Functional-core events, counted at the chunk boundary.
  u64 secure_regions = 0;  // second eosJMP commits
  u64 spm_bytes = 0;

  // Standalone predictor counters. branch_ops counts the DynOps that made
  // at least one predictor call (conditional branches and jumps).
  u64 branch_ops = 0;
  u64 tage_lookups = 0, tage_mispredicts = 0;
  u64 ittage_lookups = 0, ittage_mispredicts = 0;

  // Standalone hierarchy counters.
  u64 mem_calls = 0;  // access_instr + access_data calls
  u64 il1_accesses = 0, il1_misses = 0;
  u64 dl1_accesses = 0, dl1_misses = 0;
  u64 l2_accesses = 0, l2_misses = 0;

  sempe::pipeline::PipelineStats pipe;  // the replayed pipeline's stats

  /// Add every counter and time of `o` (not its pipeline stats).
  Replay& operator+=(const Replay& o);
};

/// Replay `program` under `cfg` (its core.mode selects the mode). The
/// result check and observation recording of `cfg` are ignored: replay
/// only times the layers.
Replay replay_run(const sempe::isa::Program& program,
                  const sempe::sim::RunConfig& cfg);

/// "" when the replay reproduces the full run `full` exactly — cycles,
/// instructions, both mispredict counts and IL1 demand accesses of the
/// pipeline; the standalone TAGE's mispredicts; the standalone
/// hierarchy's IL1 accesses, and DL1 accesses exceeding the full run's by
/// exactly its store forwards (a forwarded load never reaches the DL1).
/// Otherwise the first field that differs.
std::string fidelity_mismatch(const Replay& r,
                              const sempe::pipeline::PipelineStats& full);

}  // namespace perfbench
