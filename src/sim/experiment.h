// Experiment drivers for the paper's evaluation (Section VI). Every
// performance point is measure_workload on a registry spec (Figs. 8/9 run
// djpeg specs); a Fig. 10 point adds the ideal runs (measure_microbench):
//
//   baseline — the sJMP-annotated binary on the legacy core (the paper's
//              unprotected baseline; prefixes are ignored).
//   sempe    — the same binary on the SeMPE core.
//   cte      — the FaCT-style constant-time binary on the legacy core.
//   ideal    — two operational definitions of the sum-of-paths ideal:
//              `ideal_combined`: legacy run with all secrets true (every
//              path executes once within a single run — includes cross-path
//              locality), and `ideal_standalone`: (W+1) x the time of a
//              single-workload run (each path costed in isolation, the
//              paper's definition; SeMPE can beat this via the prefetching
//              effect).
#pragma once

#include "security/audit.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe::sim {

/// Machine knobs for ablation studies, applied to every run of a point.
/// The workload shape (iters, size, seed) travels in the spec.
struct MicrobenchOptions {
  cpu::SnapshotModel snapshot_model = cpu::SnapshotModel::kArchRS;
  u32 spm_bytes_per_cycle = 64;
  bool enable_prefetchers = true;
  Cycle extra_front_end_depth = 0;  // e.g. the LRS rename-table stage
  u32 rename_width_override = 0;    // 0 = Table II default; LRS tag-port cost
};

/// The result check of one mode's run: which run diverged from the
/// host-computed expectations, and where.
struct ModeResultCheck {
  std::string mode;    // "legacy" | "sempe" | "cte"
  bool ok = true;
  std::string detail;  // first mismatching word, "" when ok
};

/// IL1/DL1/L2 miss rates of one run (the per-level view of Fig. 9).
struct MissRates {
  double il1 = 0.0, dl1 = 0.0, l2 = 0.0;
};

/// One registry-resolved workload spec, timed across the full mode matrix:
/// the secure binary on the legacy core (baseline) and the SeMPE core, and
/// — when the generator has one — the CTE binary on the legacy core. Every
/// run's merged results are probed and checked against the host-computed
/// expectations, and against each other across modes.
struct WorkloadPoint {
  std::string spec;        // canonical spec (every parameter resolved)
  bool has_cte = false;    // generator provides a CTE variant
  bool results_ok = false; // all runs matched the expected results
  std::vector<ModeResultCheck> checks;  // one per executed mode, run order
  Cycle baseline_cycles = 0;
  Cycle sempe_cycles = 0;
  Cycle cte_cycles = 0;
  u64 baseline_instructions = 0;
  u64 sempe_instructions = 0;
  u64 cte_instructions = 0;
  MissRates baseline_miss;
  MissRates sempe_miss;

  double sempe_slowdown() const { return ratio(sempe_cycles, baseline_cycles); }
  double cte_slowdown() const { return ratio(cte_cycles, baseline_cycles); }
  /// nullptr when the mode was not run (e.g. "cte" without a variant).
  const ModeResultCheck* check(const std::string& mode) const;
  /// "mode: detail" for every failed mode, "; "-joined ("" when all ok).
  std::string mismatch_summary() const;

  static double ratio(Cycle a, Cycle b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  }
};

/// Resolve `spec` through the workload registry and measure it, with the
/// machine knobs of `opt` applied to every run.
WorkloadPoint measure_workload(const std::string& spec,
                               const MicrobenchOptions& opt = {});

/// A Fig. 10 point: measure_workload on a harnessed spec (micro.*) plus
/// the two ideals of the header comment, each the baseline (secure binary,
/// legacy core) of a re-parameterized spec: `secrets=1` for combined,
/// (W+1) x `width=0` for standalone.
struct MicrobenchPoint : WorkloadPoint {
  Cycle ideal_combined_cycles = 0;
  Cycle ideal_standalone_cycles = 0;

  /// The spec's generator name after its family prefix ("ones").
  std::string kind() const;
  /// The spec's nesting width W.
  usize width() const;

  double sempe_vs_ideal_combined() const {
    return ratio(sempe_cycles, ideal_combined_cycles);
  }
  double sempe_vs_ideal_standalone() const {
    return ratio(sempe_cycles, ideal_standalone_cycles);
  }
  double cte_vs_sempe() const { return ratio(cte_cycles, sempe_cycles); }
};

/// Measure `spec` and its two ideals. The Fig. 10 grid passes `secrets=0`
/// (the baseline skips every guarded workload, which is what makes the
/// slowdown ~ W+1); the registry default is all-true.
MicrobenchPoint measure_microbench(const std::string& spec,
                                   const MicrobenchOptions& opt = {});

/// One registry-resolved workload spec swept over the secret space: the
/// leakage audit (security/audit.h) packaged as a batch-runner point. For
/// a co-residence attack spec (attack.prime_probe / attack.flush_reload,
/// workloads/attack.h) each mode runs the full two-tenant experiment, the
/// attacker's observation trace feeds both verdict tiers, and its guessed
/// masks are scored into the key-bit recovery rate.
struct LeakagePoint {
  security::WorkloadAudit audit;

  /// The paper's claim, per workload: SeMPE closes every channel.
  bool sempe_closed() const { return audit.sempe_closed(); }
  /// True when the legacy baseline is distinguishable — the vulnerability
  /// the audit must be able to re-derive for secret-dependent workloads.
  bool legacy_leaks() const {
    const security::ModeAudit* m = audit.mode("legacy");
    return m != nullptr && !m->indistinguishable();
  }
  /// Fraction of the victim's key bits the attacker guessed right in
  /// `mode` (0.0 when the mode was not run or the spec is not an attack).
  /// Chance is ~0.5.
  double recovery_rate(const std::string& mode) const {
    const security::ModeAudit* m = audit.mode(mode);
    return m == nullptr ? 0.0 : m->recovery_rate();
  }
  /// The acceptance criterion's "at chance" notion for a protected mode:
  /// the exact tier saw no distinguishable channel, or the statistical
  /// tier (when it ran) found no evidence of a leak.
  bool at_chance(const std::string& mode) const {
    const security::ModeAudit* m = audit.mode(mode);
    if (m == nullptr) return true;  // mode absent: nothing leaked
    return m->indistinguishable() ||
           m->stat_verdict() == security::StatVerdict::kNoEvidence;
  }
  /// The vulnerable-baseline half of the attack gate: the legacy core
  /// leaks the key, i.e. recovery is decisively above the 50% chance line.
  bool legacy_recovers(double min_rate = 0.9) const {
    return recovery_rate("legacy") >= min_rate;
  }
  /// Functional cross-check over every mode and secret sample.
  bool results_ok() const {
    for (const security::ModeAudit& m : audit.modes)
      if (!m.results_ok) return false;
    return true;
  }
};

/// Audit `spec` over `opt.samples` secret vectors (see audit_workload).
LeakagePoint measure_leakage(const std::string& spec,
                             const security::AuditOptions& opt = {});

/// Benchmark scaling knobs from the environment (so `make bench` stays
/// fast by default but full-size runs are one env var away):
///   SEMPE_BENCH_ITERS  — microbenchmark iterations
///   SEMPE_DJPEG_SCALE  — djpeg pixel divisor (1 = paper size)
/// Unset, empty or 0 means `fallback`. Anything else must be a decimal
/// number that fits a usize; otherwise throws SimError naming the
/// variable and its value.
usize env_usize(const char* name, usize fallback);

}  // namespace sempe::sim
