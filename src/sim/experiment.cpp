#include "sim/experiment.h"

#include <cstdlib>
#include <optional>

#include "util/check.h"
#include "util/decimal.h"

namespace sempe::sim {

using workloads::Variant;

namespace {

RunResult run_built(const isa::Program& program, cpu::ExecMode mode,
                    const MicrobenchOptions& opt, Addr probe_addr = 0,
                    usize probe_words = 0) {
  RunConfig rc;
  rc.core.mode = mode;
  rc.record_observations = false;  // timing only; observation runs are tests
  rc.core.snapshot_model = opt.snapshot_model;
  rc.pipe.spm_bytes_per_cycle = opt.spm_bytes_per_cycle;
  rc.pipe.memory.enable_prefetchers = opt.enable_prefetchers;
  rc.pipe.front_end_depth += opt.extra_front_end_depth;
  if (opt.rename_width_override != 0)
    rc.pipe.rename_width = opt.rename_width_override;
  rc.probe_addr = probe_addr;
  rc.probe_words = probe_words;
  return run(program, rc);
}

MissRates miss_rates(const pipeline::PipelineStats& s) {
  return {s.il1_miss_rate(), s.dl1_miss_rate(), s.l2_miss_rate()};
}

}  // namespace

const ModeResultCheck* WorkloadPoint::check(const std::string& mode) const {
  for (const ModeResultCheck& c : checks)
    if (c.mode == mode) return &c;
  return nullptr;
}

std::string WorkloadPoint::mismatch_summary() const {
  std::string out;
  for (const ModeResultCheck& c : checks) {
    if (c.ok) continue;
    if (!out.empty()) out += "; ";
    out += c.mode + ": " + c.detail;
  }
  return out;
}

WorkloadPoint measure_workload(const std::string& spec,
                               const MicrobenchOptions& opt) {
  using workloads::BuiltWorkload;

  // One parse + one registry lookup serve all the builds of this point.
  const workloads::WorkloadSpec parsed = workloads::WorkloadSpec::parse(spec);
  const workloads::WorkloadGenerator& gen =
      workloads::WorkloadRegistry::instance().resolve(parsed.name);

  WorkloadPoint pt;
  const BuiltWorkload secure = gen.build(parsed, Variant::kSecure);
  pt.spec = secure.spec;

  auto timed = [&](const BuiltWorkload& b, cpu::ExecMode mode) {
    return run_built(b.program, mode, opt, b.results_addr, b.num_results);
  };
  // Per-mode checks: a mismatch names the mode and word that diverged
  // instead of collapsing into one anonymous bool.
  auto checked = [&pt](const char* mode, const std::vector<u64>& probed,
                       const std::vector<u64>& expected) {
    ModeResultCheck c;
    c.mode = mode;
    c.detail = first_result_mismatch(probed, expected);
    c.ok = c.detail.empty();
    pt.checks.push_back(std::move(c));
  };

  {
    const RunResult r = timed(secure, cpu::ExecMode::kLegacy);
    pt.baseline_cycles = r.cycles();
    pt.baseline_instructions = r.instructions;
    pt.baseline_miss = miss_rates(r.stats);
    checked("legacy", r.probed, secure.expected_results);
  }
  {
    const RunResult r = timed(secure, cpu::ExecMode::kSempe);
    pt.sempe_cycles = r.cycles();
    pt.sempe_instructions = r.instructions;
    pt.sempe_miss = miss_rates(r.stats);
    checked("sempe", r.probed, secure.expected_results);
  }

  pt.has_cte = gen.has_cte_variant();
  if (pt.has_cte) {
    const BuiltWorkload cte = gen.build(parsed, Variant::kCte);
    const RunResult r = timed(cte, cpu::ExecMode::kLegacy);
    pt.cte_cycles = r.cycles();
    pt.cte_instructions = r.instructions;
    checked("cte", r.probed, cte.expected_results);
    // The two variants must also agree with EACH OTHER on what the merged
    // results should be — a CTE emitter bug could satisfy its own mirror.
    if (cte.expected_results != secure.expected_results && pt.checks.back().ok) {
      pt.checks.back().ok = false;
      pt.checks.back().detail =
          "cte host mirror disagrees with the secure variant's: " +
          first_result_mismatch(cte.expected_results, secure.expected_results);
    }
  }
  pt.results_ok = true;
  for (const ModeResultCheck& c : pt.checks) pt.results_ok = pt.results_ok && c.ok;
  return pt;
}

std::string MicrobenchPoint::kind() const {
  const std::string name = workloads::WorkloadSpec::parse(spec).name;
  return name.substr(name.find('.') + 1);  // npos + 1 == 0: keep it whole
}

usize MicrobenchPoint::width() const {
  return static_cast<usize>(
      workloads::WorkloadSpec::parse(spec).get_u64("width", 1));
}

MicrobenchPoint measure_microbench(const std::string& spec,
                                   const MicrobenchOptions& opt) {
  MicrobenchPoint pt;
  static_cast<WorkloadPoint&>(pt) = measure_workload(spec, opt);

  // Both ideals re-parameterize the canonical spec and time the secure
  // binary on the legacy core.
  workloads::WorkloadSpec ideal = workloads::WorkloadSpec::parse(pt.spec);
  const workloads::WorkloadGenerator& gen =
      workloads::WorkloadRegistry::instance().resolve(ideal.name);
  const auto legacy_cycles = [&] {
    return run_built(gen.build(ideal, Variant::kSecure).program,
                     cpu::ExecMode::kLegacy, opt)
        .cycles();
  };
  const Cycle width = ideal.get_u64("width", 1);

  // Ideal (combined): all paths execute once in a single legacy run.
  ideal.set("secrets", "1");
  pt.ideal_combined_cycles = legacy_cycles();

  // Ideal (standalone): each path costed in isolation = (W+1) x the
  // single-workload run.
  ideal.set("width", "0");
  pt.ideal_standalone_cycles = (width + 1) * legacy_cycles();
  return pt;
}

LeakagePoint measure_leakage(const std::string& spec,
                             const security::AuditOptions& opt) {
  LeakagePoint pt;
  pt.audit = security::audit_workload(spec, opt);
  return pt;
}

usize env_usize(const char* name, usize fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<u64> parsed = parse_decimal(v);
  if (!parsed)
    throw SimError(std::string(name) + "='" + v +
                   "' is not a decimal number that fits a usize");
  return *parsed == 0 ? fallback : static_cast<usize>(*parsed);
}

}  // namespace sempe::sim
