#include "plan.h"

#include <cstdio>

#include "sim/job_key.h"
#include "util/fingerprint.h"
#include "workloads/registry.h"

namespace perfbench {

using namespace sempe;

namespace {

const char* const kMicroKinds[] = {"fibonacci", "ones", "quicksort", "queens"};
const char* const kDjpegFormats[] = {"ppm", "gif", "bmp"};
const char* const kAttackVictims[] = {"crypto.aes", "crypto.modexp",
                                      "ds.hash_probe"};
// The victim bench_tenants gates, on which the legacy attacker recovers
// the whole key for every input. On the others it recovers 79-100%
// (crypto.aes) and 83-100% (ds.hash_probe) of the key bits at width 3,
// depending on the victim's input, so the 90% floor would fail on seeds,
// not on code.
const char* const kRecoveryGatedVictim = "crypto.modexp";

// The paper's bands (the bench_fig10a / bench_fig8 headers).
constexpr double kSempeW10Lo = 8.4, kSempeW10Hi = 10.6;
constexpr double kCteW10Lo = 12.9, kCteW10Hi = 187.3;
constexpr double kDjpegLo = 0.31, kDjpegHi = 0.87;
constexpr usize kPaperWidth = 10;

bool takes_seed(const workloads::WorkloadGenerator& gen) {
  for (const workloads::ParamInfo& p : gen.params())
    if (p.key == "seed") return true;
  return false;
}

// Relative distance of `v` outside [lo, hi]; 0 inside.
double band_gap(double v, double lo, double hi) {
  if (v < lo) return (lo - v) / lo;
  if (v > hi) return (v - hi) / hi;
  return 0.0;
}

}  // namespace

Plan make_plan(const std::string& workload, u64 seed, bool small) {
  const workloads::WorkloadRegistry& reg = workloads::WorkloadRegistry::instance();
  const std::string seed_kv = "&seed=" + std::to_string(seed);
  Plan plan;
  plan.workload = workload;
  std::vector<std::string> specs;
  std::vector<std::string> labels;

  if (workload == "micro") {
    const usize max_w = small ? 2 : kPaperWidth;
    for (const char* kind : kMicroKinds) {
      for (usize w = 1; w <= max_w; ++w) {
        // secrets=0: the legacy baseline skips every guarded path, which is
        // what makes the Fig. 10 slowdown ~W+1 (the registry default of
        // all-true secrets would make legacy execute every path too). The
        // registry's iters=4 keeps a sweep at ~4 s, so a run holds several.
        specs.push_back(std::string("micro.") + kind + "?width=" +
                        std::to_string(w) + "&secrets=0" + seed_kv);
        labels.push_back(std::string(kind) + "/W=" + std::to_string(w));
        plan.widths.push_back(w);
      }
    }
  } else if (workload == "djpeg") {
    const std::vector<usize> sizes =
        small ? std::vector<usize>{16 * 1024, 32 * 1024} : sim::djpeg_sizes();
    for (const char* fmt : kDjpegFormats) {
      for (const usize px : sizes) {
        // scale=32 simulates 1/32 of each nominal Fig. 8 size (the default
        // is 1/8): a sweep takes ~6 s instead of ~23 s, and the SeMPE
        // overheads stay within a point of the scale-8 ones.
        specs.push_back(std::string("djpeg?format=") + fmt +
                        "&pixels=" + std::to_string(px) + "&scale=32" + seed_kv);
        labels.push_back(std::string(fmt) + "/" + std::to_string(px / 1024) +
                         "k");
      }
    }
  } else if (workload == "audit") {
    plan.family = Family::kLeakage;
    // Width 3: the exact tier sweeps all 8 secret vectors, and the
    // statistical tier's draws all hit memoized runs.
    const std::string width = "width=3";
    for (const std::string& name : reg.names()) {
      const workloads::WorkloadGenerator& gen = reg.resolve(name);
      if (gen.is_attack()) {
        for (const char* victim : kAttackVictims) {
          specs.push_back(name + "?victim=" + victim + "&" + width + seed_kv);
          labels.push_back(name + "/" + victim);
          plan.victim.push_back(victim);
        }
        continue;
      }
      if (gen.secret_width(workloads::WorkloadSpec::parse(name)) == 0)
        continue;  // no secret dimension to audit (djpeg)
      specs.push_back(name + "?" + width + (takes_seed(gen) ? seed_kv : ""));
      labels.push_back(name);
      plan.victim.push_back("");
    }
  } else {
    throw SimError("unknown workload '" + workload +
                   "' (expected micro, djpeg or audit)");
  }

  // Registry resolution: every spec must parse and name a generator.
  for (const std::string& s : specs)
    reg.resolve(workloads::WorkloadSpec::parse(s).name);

  const std::string fingerprint = code_fingerprint();
  if (plan.family == Family::kWorkload) {
    plan.workload_jobs = sim::workload_grid(specs, {});
    for (usize i = 0; i < specs.size(); ++i) {
      plan.workload_jobs[i].label = labels[i];
      plan.keys.push_back(sim::job_cache_key(plan.workload_jobs[i], fingerprint));
    }
  } else {
    security::AuditOptions opt;
    opt.samples = 8;  // exhaustive over the 2^3 secret vectors
    opt.seed = seed;
    opt.stat_samples = small ? 4 : 32;  // per class, one round per mode
    plan.leakage_jobs = sim::leakage_grid(specs, opt);
    for (usize i = 0; i < specs.size(); ++i) {
      plan.leakage_jobs[i].label = labels[i];
      plan.keys.push_back(sim::job_cache_key(plan.leakage_jobs[i], fingerprint));
    }
  }
  return plan;
}

std::string point_failure(const Plan& plan, usize i,
                          const sim::WorkloadPoint& p) {
  if (!p.results_ok)
    return plan.workload_jobs[i].label + ": " + p.mismatch_summary();
  return "";
}

std::string point_failure(const Plan& plan, usize i,
                          const sim::LeakagePoint& p) {
  const std::string& label = plan.leakage_jobs[i].label;
  if (!p.results_ok()) return label + ": results differ from the host mirror";
  if (plan.victim[i].empty()) {
    if (!p.sempe_closed()) {
      const security::ModeAudit* m = p.audit.mode("sempe");
      return label + ": SeMPE channel open: " +
             (m != nullptr ? m->first_divergence() : "no sempe mode");
    }
    return "";
  }
  // The bench_tenants gate: the legacy attacker recovers the key, the
  // protected modes stay at chance.
  const security::ModeAudit* legacy = p.audit.mode("legacy");
  if (plan.victim[i] == kRecoveryGatedVictim &&
      (legacy == nullptr || legacy->recovery_rate() < 0.9))
    return label + ": legacy key recovery below 90%";
  for (const char* mode : {"sempe", "cte"}) {
    const security::ModeAudit* m = p.audit.mode(mode);
    if (m != nullptr && !m->indistinguishable() &&
        m->stat_verdict() != security::StatVerdict::kNoEvidence)
      return label + ": " + mode + " not at chance";
  }
  return "";
}

std::string attack_summary(const Plan& plan, usize i,
                           const sim::LeakagePoint& p) {
  if (plan.victim[i].empty()) return "";
  std::string out = plan.leakage_jobs[i].label + ": key recovery";
  for (const security::ModeAudit& m : p.audit.modes) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.1f%%", m.mode.c_str(),
                  100.0 * m.recovery_rate());
    out += buf;
  }
  return out;
}

double paper_gap(const Plan& plan,
                 const std::vector<sim::WorkloadPoint>& points) {
  double sum = 0.0;
  usize n = 0;
  for (usize i = 0; i < points.size(); ++i) {
    const sim::WorkloadPoint& p = points[i];
    if (plan.workload == "micro") {
      if (plan.widths[i] != kPaperWidth) continue;
      sum += band_gap(p.sempe_slowdown(), kSempeW10Lo, kSempeW10Hi);
      sum += band_gap(p.cte_slowdown(), kCteW10Lo, kCteW10Hi);
      n += 2;
    } else if (plan.workload == "djpeg") {
      sum += band_gap(p.sempe_slowdown() - 1.0, kDjpegLo, kDjpegHi);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<std::string> paper_values(
    const Plan& plan, const std::vector<sim::WorkloadPoint>& points) {
  std::vector<std::string> out;
  char buf[160];
  for (usize i = 0; i < points.size(); ++i) {
    const sim::WorkloadPoint& p = points[i];
    if (plan.workload == "micro" && plan.widths[i] == kPaperWidth) {
      std::snprintf(buf, sizeof buf,
                    "%s: SeMPE %.2fx (paper %.1f-%.1fx), CTE %.2fx (paper "
                    "%.1f-%.1fx)",
                    plan.workload_jobs[i].label.c_str(), p.sempe_slowdown(),
                    kSempeW10Lo, kSempeW10Hi, p.cte_slowdown(), kCteW10Lo,
                    kCteW10Hi);
      out.push_back(buf);
    } else if (plan.workload == "djpeg") {
      std::snprintf(buf, sizeof buf, "%s: SeMPE overhead %.1f%% (paper %.0f-%.0f%%)",
                    plan.workload_jobs[i].label.c_str(),
                    100.0 * (p.sempe_slowdown() - 1.0), 100.0 * kDjpegLo,
                    100.0 * kDjpegHi);
      out.push_back(buf);
    }
  }
  return out;
}

}  // namespace perfbench
