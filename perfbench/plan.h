// The benchmark's workloads: which registry specs each one sweeps, how a
// point passes the correctness gate, and how far a sweep lands from the
// bands the paper states.
#pragma once

#include <string>
#include <vector>

#include "sim/batch_runner.h"

namespace perfbench {

using sempe::u64;
using sempe::usize;

/// micro and djpeg sweep through sim::run_workload_sweep, audit through
/// sim::run_leakage_sweep.
enum class Family { kWorkload, kLeakage };

struct Plan {
  std::string workload;  // "micro" | "djpeg" | "audit"
  Family family = Family::kWorkload;
  std::vector<sempe::sim::WorkloadJob> workload_jobs;
  std::vector<sempe::sim::LeakageJob> leakage_jobs;
  std::vector<usize> widths;  // micro: W of each job
  std::vector<std::string> victim;  // audit: attack.* job's victim, else ""
  std::vector<std::string> keys;  // each job's content-address key

  usize size() const {
    return family == Family::kWorkload ? workload_jobs.size()
                                       : leakage_jobs.size();
  }
};

/// Resolve every spec of `workload` through the registry, build the job
/// grid and the job keys: the benchmark's set-up. `seed` goes into each
/// spec's seed= and the audit sampler; `small` selects the seconds-long
/// grids of the self-test. Throws SimError for an unknown workload.
Plan make_plan(const std::string& workload, u64 seed, bool small);

/// "" when point `i` passes the gate, else why it fails: results differ
/// from the host mirror; on audit also an open SeMPE channel, or an attack
/// point that fails the gate bench_tenants applies: protected modes not at
/// chance, or, against crypto.modexp (the victim bench_tenants gates),
/// legacy key recovery below 90% (see README.md, known deviations).
std::string point_failure(const Plan& plan, usize i,
                          const sempe::sim::WorkloadPoint& p);
std::string point_failure(const Plan& plan, usize i,
                          const sempe::sim::LeakagePoint& p);

/// The human report line of an attack point ("" for other points): the
/// key recovery of each mode.
std::string attack_summary(const Plan& plan, usize i,
                           const sempe::sim::LeakagePoint& p);

/// Mean relative distance by which each paper-comparable value falls
/// outside the band the paper states (0 inside): micro at W=10 — SeMPE
/// 8.4-10.6x and CTE 12.9-187.3x slowdown per kernel; djpeg — SeMPE
/// overhead 31-87% per point. 0 when the plan has no comparable point.
double paper_gap(const Plan& plan,
                 const std::vector<sempe::sim::WorkloadPoint>& points);

/// The paper-comparable values paper_gap judges, one report line each.
std::vector<std::string> paper_values(
    const Plan& plan, const std::vector<sempe::sim::WorkloadPoint>& points);

}  // namespace perfbench
