// perfbench — one process of the repository benchmark (driven by run.py).
//
//   perfbench --workload micro|djpeg|audit --seed N --phase P
//             [--small] [--spans FILE]
//
// Phases:
//   setup  registry resolution, job grid and job keys, then stop; prints
//          the monotonic time at which the first job would start.
//   sweep  set-up, then one untraced sweep through sim::run_workload_sweep
//          or sim::run_leakage_sweep: host wall and CPU time, simulated
//          instructions, peak RSS, the correctness gate, the digest.
//   trace  set-up, one untraced sweep, one traced sweep (benchmark-side
//          spans around every layer call), a second untraced sweep (the
//          warm baseline of trace_overhead), then the chunked component
//          replay of replay.h with its fidelity check: the per-layer
//          metrics. Spans go to --spans when the process ends.
//
// The last stdout line is one JSON object; run.py turns it into metrics.
// Human-readable lines (digest, failures, paper gap) come before it.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/report.h"
#include "plan.h"
#include "replay.h"
#include "sim/batch_runner.h"
#include "sim/job_key.h"
#include "util/clock.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

using namespace sempe;

// Sweep workers: one process loads the host's 4 cores.
constexpr usize kWorkers = 4;

struct Args {
  std::string workload;
  u64 seed = 1;
  std::string phase;
  bool small = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload micro|djpeg|audit "
               "--seed N --phase setup|sweep|trace [--small] "
               "[--spans FILE]\n",
               why);
  std::exit(2);
}

u64 parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("expected a whole number");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = parse_u64(value());
    else if (k == "--phase") a.phase = value();
    else if (k == "--small") a.small = true;
    else if (k == "--spans") a.spans_path = value();
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty() ||
      (a.phase != "setup" && a.phase != "sweep" && a.phase != "trace"))
    usage("need --workload and --phase setup|sweep|trace");
  return a;
}

double seconds(u64 ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// Host CPU seconds of the whole process, all threads.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Minimal JSON object writer for the result line.

class JsonObject {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    field(k, q + "\"");
  }
  void raw(const std::string& k, const std::string& json) { field(k, json); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Span log: name, start, end, parent and job id, kept in memory and
// written out when the process ends.

class SpanLog {
 public:
  static constexpr long kNone = -1;

  long begin(const std::string& name, long job, long parent) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, job, parent, mono_ns(), 0});
    return static_cast<long>(spans_.size() - 1);
  }
  u64 end(long id) {
    const u64 now = mono_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<usize>(id)];
    s.end_ns = now;
    return s.end_ns - s.start_ns;
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject o;
      o.num("id", static_cast<double>(i));
      o.str("name", s.name);
      o.num("job", static_cast<double>(s.job));
      o.num("parent", static_cast<double>(s.parent));
      o.num("start_ns", static_cast<double>(s.start_ns));
      o.num("end_ns", static_cast<double>(s.end_ns));
      out << "  " << o.text() << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    long job;
    long parent;
    u64 start_ns;
    u64 end_ns;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, long job, long parent)
      : log_(log), id_(log.begin(name, job, parent)) {}
  ~ScopedSpan() {
    if (!ended_) log_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  long id() const { return id_; }
  /// End now; returns the span's duration in ns.
  u64 end() {
    ended_ = true;
    return log_.end(id_);
  }

 private:
  SpanLog& log_;
  long id_;
  bool ended_ = false;
};

// ---------------------------------------------------------------------------
// The untraced sweep.

struct Sweep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  u64 instrs = 0;  // simulated instructions, all modes
  usize failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  double paper_gap = 0.0;
  std::vector<sim::WorkloadPoint> workload_points;
  std::vector<sim::LeakagePoint> leakage_points;
};

u64 workload_instrs(const sim::WorkloadPoint& p) {
  return p.baseline_instructions + p.sempe_instructions + p.cte_instructions;
}

// The audit's thousands of runs report their simulated instructions only
// through the metric registry, so the audit sweeps with it switched on.
std::unique_ptr<obs::Session> audit_session(const Plan& plan) {
  if (plan.family != Family::kLeakage) return nullptr;
  obs::Session::Options o;
  o.metrics = true;
  return std::make_unique<obs::Session>(o);
}

void gate(const Plan& plan, Sweep& s) {
  for (usize i = 0; i < plan.size(); ++i) {
    const std::string why =
        plan.family == Family::kWorkload
            ? point_failure(plan, i, s.workload_points[i])
            : point_failure(plan, i, s.leakage_points[i]);
    if (!why.empty()) {
      ++s.failed;
      s.failures.push_back(why);
    }
  }
}

Sweep run_sweep(const Plan& plan) {
  Sweep s;
  sim::SweepOptions so;
  so.threads = kWorkers;  // cache and journal stay off
  std::unique_ptr<obs::Session> session = audit_session(plan);
  obs::set_session(session.get());
  const double cpu0 = process_cpu_s();
  const u64 t0 = mono_ns();
  std::string json;
  try {
    if (plan.family == Family::kWorkload) {
      s.workload_points =
          sim::run_workload_sweep(plan.workload_jobs, so).points;
      json = sim::workload_json("perfbench." + plan.workload,
                                plan.workload_jobs, s.workload_points);
    } else {
      s.leakage_points = sim::run_leakage_sweep(plan.leakage_jobs, so).points;
      json = sim::leakage_json("perfbench." + plan.workload, plan.leakage_jobs,
                               s.leakage_points);
    }
  } catch (const std::exception& e) {
    obs::set_session(nullptr);
    s.failed = plan.size();
    s.failures.push_back(std::string("sweep raised: ") + e.what());
    return s;
  }
  s.wall_s = seconds(mono_ns() - t0);
  s.cpu_s = process_cpu_s() - cpu0;
  obs::set_session(nullptr);

  s.digest = sim::key_hex(sim::fnv1a64(json));
  if (session != nullptr) {
    const auto counters = session->metrics().merged().counters();
    const auto it = counters.find("pipeline.instructions");
    if (it != counters.end()) s.instrs = it->second;
  }
  for (const sim::WorkloadPoint& p : s.workload_points) s.instrs += workload_instrs(p);
  if (plan.family == Family::kWorkload)
    s.paper_gap = paper_gap(plan, s.workload_points);
  gate(plan, s);
  return s;
}

void print_report(const Plan& plan, const Sweep& s) {
  std::printf("workload %s: %zu point(s), %zu failed, digest %s\n",
              plan.workload.c_str(), plan.size(), s.failed, s.digest.c_str());
  for (usize i = 0; i < s.leakage_points.size(); ++i) {
    const std::string line = attack_summary(plan, i, s.leakage_points[i]);
    if (!line.empty()) std::printf("  %s\n", line.c_str());
  }
  for (const std::string& f : s.failures) std::printf("  FAIL %s\n", f.c_str());
  for (const std::string& line : paper_values(plan, s.workload_points))
    std::printf("  %s\n", line.c_str());
  if (plan.family == Family::kWorkload)
    std::printf("paper_gap %.6f\n", s.paper_gap);
}

void put_sweep(JsonObject& o, const Plan& plan, const Sweep& s) {
  o.num("points", static_cast<double>(plan.size()));
  o.num("failed", static_cast<double>(s.failed));
  o.str("digest", s.digest);
  o.num("wall_s", s.wall_s);
  o.num("cpu_s", s.cpu_s);
  o.num("instrs", static_cast<double>(s.instrs));
  o.num("paper_gap", s.paper_gap);
}

// ---------------------------------------------------------------------------
// The traced run.

const char* mode_name(cpu::ExecMode m, workloads::Variant v) {
  if (v == workloads::Variant::kCte) return "cte";
  return m == cpu::ExecMode::kSempe ? "sempe" : "legacy";
}

// One timed run of a traced job, kept for the replay and its fidelity
// check.
struct FullRun {
  usize job = 0;
  std::string mode;
  workloads::Variant variant{};
  cpu::ExecMode exec{};
  std::string spec;  // the spec the program was built from
  pipeline::PipelineStats stats;
  u64 ns = 0;        // host time of the full sim::run
  u64 obs_ns = 0;    // audit only: the same run with observations on
};

struct Traced {
  double wall_s = 0.0;
  std::vector<double> job_s;  // per job span duration
  u64 build_ns = 0;
  u64 programs = 0;
  std::vector<FullRun> runs;
  usize failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, u64> counters;
  usize stat_pairs = 0;
};

sim::RunConfig run_config(cpu::ExecMode mode, const workloads::BuiltWorkload& b,
                          bool observe) {
  sim::RunConfig rc;
  rc.core.mode = mode;
  rc.record_observations = observe;
  rc.probe_addr = b.results_addr;
  rc.probe_words = b.num_results;
  return rc;
}

struct ModeRun {
  workloads::Variant variant;
  cpu::ExecMode exec;
};

std::vector<ModeRun> mode_runs(const workloads::WorkloadGenerator& gen) {
  std::vector<ModeRun> m = {
      {workloads::Variant::kSecure, cpu::ExecMode::kLegacy},
      {workloads::Variant::kSecure, cpu::ExecMode::kSempe}};
  if (gen.has_cte_variant())
    m.push_back({workloads::Variant::kCte, cpu::ExecMode::kLegacy});
  return m;
}

// What measure_workload does, with a span around each layer call: the
// registry build of each variant and the sim::run of each mode. With
// `observe` each run is repeated with observation recording on, timing the
// recorder.
struct JobTrace {
  u64 build_ns = 0;
  u64 programs = 0;
  std::vector<FullRun> runs;
};

JobTrace run_modes(const std::string& spec, usize job, const std::string& label,
                   SpanLog& log, long parent, bool observe) {
  const long ji = static_cast<long>(job);
  ScopedSpan js(log, "job:" + label, ji, parent);
  const workloads::WorkloadSpec parsed = workloads::WorkloadSpec::parse(spec);
  const workloads::WorkloadGenerator& gen =
      workloads::WorkloadRegistry::instance().resolve(parsed.name);
  JobTrace t;
  std::map<workloads::Variant, workloads::BuiltWorkload> built;
  for (const ModeRun& m : mode_runs(gen)) {
    if (built.count(m.variant) == 0) {
      ScopedSpan bs(log, "workloads.build", ji, js.id());
      built.emplace(m.variant, gen.build(parsed, m.variant));
      t.build_ns += bs.end();
      ++t.programs;
    }
    const workloads::BuiltWorkload& b = built.at(m.variant);
    FullRun r;
    r.job = job;
    r.mode = mode_name(m.exec, m.variant);
    r.variant = m.variant;
    r.exec = m.exec;
    r.spec = spec;
    ScopedSpan rs(log, "sim.run." + r.mode, ji, js.id());
    r.stats = sim::run(b.program, run_config(m.exec, b, false)).stats;
    r.ns = rs.end();
    if (observe) {
      ScopedSpan os(log, "sim.run_observed." + r.mode, ji, js.id());
      sim::run(b.program, run_config(m.exec, b, true));
      r.obs_ns = os.end();
    }
    t.runs.push_back(std::move(r));
  }
  return t;
}

// Longest-processing-time-first makespan of `jobs` over `workers`: the
// reference schedule sim.sched_excess_s is measured against.
double lpt_makespan(std::vector<double> jobs, usize workers) {
  std::sort(jobs.begin(), jobs.end(), std::greater<>());
  std::vector<double> load(workers, 0.0);
  for (const double j : jobs) *std::min_element(load.begin(), load.end()) += j;
  return *std::max_element(load.begin(), load.end());
}

Traced run_traced(const Plan& plan, const Sweep& sweep, SpanLog& log) {
  Traced t;
  const long sweep_span = log.begin("sweep", SpanLog::kNone, SpanLog::kNone);
  std::unique_ptr<obs::Session> session = audit_session(plan);
  obs::set_session(session.get());
  const u64 t0 = mono_ns();
  std::vector<double> job_s(plan.size(), 0.0);
  if (plan.family == Family::kWorkload) {
    auto traces = sim::run_indexed(plan.size(), kWorkers, [&](usize i) {
      const u64 j0 = mono_ns();
      const sim::WorkloadJob& job = plan.workload_jobs[i];
      JobTrace jt = run_modes(job.spec, i, job.label, log, sweep_span, false);
      job_s[i] = seconds(mono_ns() - j0);
      return jt;
    });
    t.wall_s = seconds(mono_ns() - t0);
    for (JobTrace& jt : traces) {
      t.build_ns += jt.build_ns;
      t.programs += jt.programs;
      for (FullRun& r : jt.runs) t.runs.push_back(std::move(r));
    }
    // The traced runs must be the runs the sweep measured.
    for (const FullRun& r : t.runs) {
      const sim::WorkloadPoint& p = sweep.workload_points[r.job];
      const Cycle want = r.mode == "legacy"  ? p.baseline_cycles
                         : r.mode == "sempe" ? p.sempe_cycles
                                             : p.cte_cycles;
      if (r.stats.cycles != want) {
        ++t.failed;
        t.failures.push_back(plan.workload_jobs[r.job].label + " " + r.mode +
                             ": traced run differs from the sweep");
      }
    }
  } else {
    auto points = sim::run_indexed(plan.size(), kWorkers, [&](usize i) {
      const u64 j0 = mono_ns();
      const long ji = static_cast<long>(i);
      ScopedSpan js(log, "job:" + plan.leakage_jobs[i].label, ji, sweep_span);
      ScopedSpan as(log, "security.audit", ji, js.id());
      sim::LeakagePoint p = sim::measure_leakage(plan.leakage_jobs[i].spec,
                                                 plan.leakage_jobs[i].opt);
      as.end();
      job_s[i] = seconds(mono_ns() - j0);
      return p;
    });
    t.wall_s = seconds(mono_ns() - t0);
    for (const sim::LeakagePoint& p : points) t.stat_pairs += p.audit.stat_pairs;
  }
  log.end(sweep_span);
  obs::set_session(nullptr);
  if (session != nullptr) t.counters = session->metrics().merged().counters();
  t.job_s = std::move(job_s);
  return t;
}

// The audit's replay sample: the all-zero and all-one secret vectors of
// every non-attack spec, each run in full with observations off and on
// (the recorder's cost). `build_ns_per_vector` is their mean build cost.
std::vector<FullRun> audit_full_runs(const Plan& plan, SpanLog& log,
                                     double& build_ns_per_vector) {
  std::vector<std::pair<usize, std::string>> tasks;  // (job, spec)
  for (usize i = 0; i < plan.size(); ++i) {
    if (!plan.victim[i].empty()) continue;
    const workloads::WorkloadSpec base =
        workloads::WorkloadSpec::parse(plan.leakage_jobs[i].spec);
    const usize w = workloads::WorkloadRegistry::instance()
                        .resolve(base.name)
                        .secret_width(base);
    for (const u64 mask : {u64{0}, (u64{1} << w) - 1}) {
      workloads::WorkloadSpec s = base;
      s.set("secrets", workloads::secrets_literal(mask, w));
      tasks.emplace_back(i, s.to_string());
    }
  }
  auto traces = sim::run_indexed(tasks.size(), kWorkers, [&](usize k) {
    const auto& [job, spec] = tasks[k];
    return run_modes(spec, job, plan.leakage_jobs[job].label + "/replay-sample",
                     log, SpanLog::kNone, true);
  });
  std::vector<FullRun> runs;
  u64 build_ns = 0;
  for (JobTrace& jt : traces) {
    build_ns += jt.build_ns;
    for (FullRun& r : jt.runs) runs.push_back(std::move(r));
  }
  build_ns_per_vector = ratio(static_cast<double>(build_ns),
                              static_cast<double>(tasks.size()));
  return runs;
}

struct LayerTotals {
  std::map<std::string, Replay> mode;  // replays summed per mode
  Replay sum;                          // replays summed over every mode
  std::map<std::string, u64> cycles, full_instrs;  // full runs, per mode
  u64 full_ns = 0, obs_ns = 0, plain_ns = 0;
  u64 drain = 0, spm_transfer = 0;
  usize checks = 0, failed = 0;
  std::vector<std::string> failures;
};

LayerTotals replay_all(std::vector<FullRun> runs, SpanLog& log) {
  // Longest first, so the big runs do not start last.
  std::sort(runs.begin(), runs.end(), [](const FullRun& a, const FullRun& b) {
    return a.stats.instructions > b.stats.instructions;
  });
  auto replays = sim::run_indexed(runs.size(), kWorkers, [&](usize k) {
    const FullRun& r = runs[k];
    const workloads::BuiltWorkload b =
        workloads::WorkloadRegistry::instance().build(r.spec, r.variant);
    ScopedSpan rs(log, "replay." + r.mode, static_cast<long>(r.job),
                  SpanLog::kNone);
    return replay_run(b.program, run_config(r.exec, b, false));
  });

  LayerTotals t;
  for (usize k = 0; k < runs.size(); ++k) {
    const FullRun& f = runs[k];
    const Replay& r = replays[k];
    t.mode[f.mode] += r;
    t.sum += r;
    t.cycles[f.mode] += f.stats.cycles;
    t.full_instrs[f.mode] += f.stats.instructions;
    t.full_ns += f.ns;
    t.obs_ns += f.obs_ns;
    t.plain_ns += f.obs_ns != 0 ? f.ns : 0;
    t.drain += f.stats.drain_stall_cycles;
    t.spm_transfer += f.stats.spm_transfer_cycles;
    ++t.checks;
    const std::string why = fidelity_mismatch(r, f.stats);
    if (!why.empty()) {
      ++t.failed;
      t.failures.push_back("replay fidelity " + f.spec + " " + f.mode + ": " +
                           why);
    }
  }
  return t;
}

std::string layer_metrics(const Plan& plan, const Sweep& sweep,
                          const Sweep& warm, const Traced& tr,
                          const LayerTotals& lt,
                          double audit_build_ns_per_vector) {
  JsonObject out;
  const auto put = [&out](const std::string& name, double v,
                          const char* unit) {
    JsonObject m;
    m.num("value", v);
    m.str("unit", unit);
    out.raw(name, m.text());
  };
  const auto d = [](u64 v) { return static_cast<double>(v); };
  const Replay& all = lt.sum;

  put("pipeline.self_ns_per_instr",
      ratio(d(all.pipeline_ns) - d(all.branch_ns) - d(all.mem_ns),
            d(all.instrs)),
      "ns");
  for (const char* m : {"legacy", "sempe", "cte"}) {
    const auto it = lt.mode.find(m);
    const Replay r = it == lt.mode.end() ? Replay{} : it->second;
    const auto full = [m](const std::map<std::string, u64>& mp) {
      const auto f = mp.find(m);
      return f == mp.end() ? 0.0 : static_cast<double>(f->second);
    };
    put(std::string("pipeline.ns_per_instr.") + m,
        ratio(d(r.pipeline_ns), d(r.instrs)), "ns");
    put(std::string("cpu.ns_per_instr.") + m, ratio(d(r.cpu_ns), d(r.instrs)),
        "ns");
    put(std::string("pipeline.cpi.") + m,
        ratio(full(lt.cycles), full(lt.full_instrs)), "cycles");
  }
  const u64 lookups = all.tage_lookups + all.ittage_lookups;
  put("branch.ns_per_op", ratio(d(all.branch_ns), d(all.branch_ops)), "ns");
  put("branch.lookups", d(lookups), "count");
  put("branch.mispredict_rate",
      ratio(d(all.tage_mispredicts + all.ittage_mispredicts), d(lookups)),
      "ratio");
  put("cpu.instrs", d(all.instrs), "count");
  put("cpu.secure_regions", d(all.secure_regions), "count");
  put("cpu.spm_bytes", d(all.spm_bytes), "B");
  put("mem.ns_per_access", ratio(d(all.mem_ns), d(all.mem_calls)), "ns");
  put("mem.il1_miss_rate", ratio(d(all.il1_misses), d(all.il1_accesses)),
      "ratio");
  put("mem.dl1_miss_rate", ratio(d(all.dl1_misses), d(all.dl1_accesses)),
      "ratio");
  put("mem.l2_miss_rate", ratio(d(all.l2_misses), d(all.l2_accesses)),
      "ratio");
  put("pipeline.drain_stall_cycles", d(lt.drain), "cycles");
  put("pipeline.spm_transfer_cycles", d(lt.spm_transfer), "cycles");

  double busy = 0.0;
  double longest = 0.0;
  for (const double j : tr.job_s) {
    busy += j;
    longest = std::max(longest, j);
  }
  put("sim.jobs", d(plan.size()), "count");
  put("sim.longest_job_s", longest, "s");
  put("sim.busy_frac", ratio(busy, tr.wall_s * static_cast<double>(kWorkers)),
      "ratio");
  put("sim.sched_excess_s", tr.wall_s - lpt_makespan(tr.job_s, kWorkers), "s");

  const auto counter = [&tr](const char* k) {
    const auto it = tr.counters.find(k);
    return it == tr.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  if (plan.family == Family::kWorkload) {
    put("workloads.build_s", seconds(tr.build_ns), "s");
    put("workloads.programs", d(tr.programs), "count");
    put("security.audit_s", 0.0, "s");
    put("security.sim_runs", 0.0, "count");
    put("security.stat_pairs", 0.0, "count");
    put("security.recorder_overhead", 0.0, "ratio");
  } else {
    // Each distinct secret vector the audit simulated is one build of the
    // workload's variants; the build cost per vector is measured on the
    // replay sample.
    const double vectors = counter("audit.samples");
    put("workloads.build_s", vectors * audit_build_ns_per_vector * 1e-9, "s");
    put("workloads.programs", vectors, "count");
    put("security.audit_s", busy, "s");
    put("security.sim_runs", counter("sim.detailed_runs"), "count");
    put("security.stat_pairs", d(tr.stat_pairs), "count");
    put("security.recorder_overhead", ratio(d(lt.obs_ns), d(lt.plain_ns)) - 1.0,
        "ratio");
  }
  put("replay_coverage", ratio(d(all.cpu_ns + all.pipeline_ns), d(lt.full_ns)),
      "ratio");
  put("trace_overhead", ratio(tr.wall_s, warm.wall_s) - 1.0, "ratio");
  put("paper_gap", sweep.paper_gap, "ratio");
  put("fail_rate",
      ratio(d(sweep.failed + tr.failed + lt.failed),
            d(plan.size() * 2 + lt.checks)),
      "ratio");
  return out.text();
}

int run_main(const Args& args) {
  const Plan plan = make_plan(args.workload, args.seed, args.small);
  const u64 first_job_ns = mono_ns();
  JsonObject o;
  o.str("phase", args.phase);
  o.num("first_job_ns", static_cast<double>(first_job_ns));
  if (args.phase == "setup") {
    std::printf("%s\n", o.text().c_str());
    return 0;
  }

  const Sweep sweep = run_sweep(plan);
  print_report(plan, sweep);
  put_sweep(o, plan, sweep);
  if (args.phase == "sweep") {
    o.num("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", o.text().c_str());
    return 0;
  }

  if (sweep.workload_points.size() + sweep.leakage_points.size() !=
      plan.size())
    return 1;  // the sweep raised: nothing to trace against
  SpanLog log;
  const Traced tr = run_traced(plan, sweep, log);
  // The first sweep of a process also pays for warming its allocator and
  // page pools; the traced sweep is compared with a second, warm one.
  const Sweep warm = run_sweep(plan);
  if (warm.digest != sweep.digest) {
    std::printf("  FAIL digest differs between sweeps: %s vs %s\n",
                sweep.digest.c_str(), warm.digest.c_str());
    return 1;
  }
  double audit_build_ns_per_vector = 0.0;
  std::vector<FullRun> runs =
      plan.family == Family::kWorkload
          ? tr.runs
          : audit_full_runs(plan, log, audit_build_ns_per_vector);
  const LayerTotals lt = replay_all(std::move(runs), log);
  for (const std::string& f : tr.failures) std::printf("  FAIL %s\n", f.c_str());
  for (const std::string& f : lt.failures) std::printf("  FAIL %s\n", f.c_str());
  std::printf("replay fidelity: %zu run(s) checked, %zu mismatch(es)\n",
              lt.checks, lt.failed);
  o.num("trace_failed", static_cast<double>(tr.failed + lt.failed));
  o.num("replay_checks", static_cast<double>(lt.checks));
  o.raw("layers",
        layer_metrics(plan, sweep, warm, tr, lt, audit_build_ns_per_vector));
  if (!args.spans_path.empty() && !log.write(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", o.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
