// sempe_bench — the paper's evaluation, one report per figure or table:
//
//   build/bench/sempe_bench REPORT [--threads=N] [--json[=F]] [--jobs=RE]
//                                  [--shard=i/N] [--cache-dir=D] ...
//
// Each kReports row is a job grid, a printer and, for gated reports, the
// check that sets the exit status; all run the lifecycle in sweep_report().
// Views of the same points share a grid function (fig10a/fig10b/table1,
// fig8/fig9, leakage/lint): cache keys ignore labels, so with one
// --cache-dir the later views replay the first one's sweep.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/report.h"
#include "sim/batch_runner.h"
#include "sim/machine_config.h"
#include "util/check.h"
#include "workloads/registry.h"
#include "workloads/scenarios.h"
#include "workloads/synthetic.h"

namespace {

using namespace sempe;
using sim::BatchCli;
using sim::MicrobenchJob;
using sim::SweepRun;
using workloads::Kind;

/// One report invocation: the flags, the report name (the JSON and metric
/// report `experiment`) and the obs session main installed.
struct ReportRun {
  const BatchCli& cli;
  const char* name;
  std::unique_ptr<obs::Session> session;
};

/// The session the observability flags ask for, installed process-wide;
/// nullptr (and nothing installed) when there are none, so the unobserved
/// sweep path stays byte-for-byte the pre-observability code.
std::unique_ptr<obs::Session> make_obs_session(const BatchCli& cli) {
  obs::Session::Options opt;
  opt.metrics = !cli.metrics_path.empty();
  opt.trace = !cli.trace_path.empty();
  opt.progress = cli.progress;
  if (!opt.metrics && !opt.trace && !opt.progress) return nullptr;
  auto session = std::make_unique<obs::Session>(opt);
  obs::set_session(session.get());
  return session;
}

/// Uninstall the global session and write the --trace-out / --metrics-out
/// files; false (with a stderr diagnostic) on I/O failure.
bool finish_obs_session(const BatchCli& cli, const char* experiment,
                        std::unique_ptr<obs::Session> session) {
  obs::set_session(nullptr);
  return session == nullptr ||
         sim::write_obs_outputs(*session, experiment, cli.trace_path,
                                cli.metrics_path);
}

/// The human report's stream: stderr under a bare --json (JSON on stdout).
std::FILE* report_stream(const BatchCli& cli) {
  return cli.want_json && cli.json_path.empty() ? stderr : stdout;
}

/// Filter, sweep and report `jobs`. `print(out, jobs, run)` writes the
/// human report for whatever points the run holds (a --jobs filter or
/// --shard may leave holes) and returns the report's gate: false exits 1.
template <typename Job, typename Point, typename Print>
int sweep_report(ReportRun& r, std::vector<Job> jobs,
                 SweepRun<Point> (*sweep)(const std::vector<Job>&,
                                          const sim::SweepOptions&),
                 std::string (*to_json)(const std::string&,
                                        const std::vector<Job>&,
                                        const SweepRun<Point>&),
                 Print print) {
  sim::apply_job_filter(jobs, r.cli);
  const Stopwatch sweep_sw;
  const SweepRun<Point> run = sweep(jobs, sim::sweep_options(r.cli));
  const double secs = sweep_sw.elapsed_seconds();
  const bool gate = print(report_stream(r.cli), jobs, run);
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), secs,
               sim::resolve_threads(r.cli.threads, run.points.size()));
  if (!finish_obs_session(r.cli, r.name, std::move(r.session))) return 1;
  if (r.cli.want_json && !sim::emit_json(r.cli, to_json(r.name, jobs, run)))
    return 1;
  return gate ? 0 : 1;
}

const std::vector<usize> kFig10Widths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

/// The Fig. 10 grid: the four microbenchmarks at every nesting depth in
/// `widths`, SEMPE_BENCH_ITERS iterations per run (default 20).
std::vector<MicrobenchJob> fig10_grid(const std::vector<usize>& widths) {
  return sim::microbench_grid(sim::all_kinds(), widths,
                              sim::env_usize("SEMPE_BENCH_ITERS", 20), {});
}

/// The Figs. 8/9 grid: 3 output formats x 4 image sizes. SEMPE_DJPEG_SCALE
/// divides the pixel counts (default 8; 1 for paper-sized images).
std::vector<sim::WorkloadJob> djpeg_grid() {
  using workloads::OutputFormat;
  return sim::djpeg_grid(
      {OutputFormat::kPpm, OutputFormat::kGif, OutputFormat::kBmp},
      sim::djpeg_sizes(), sim::env_usize("SEMPE_DJPEG_SCALE", 8));
}

/// A djpeg point's format and pixel count, read back from its spec.
workloads::DjpegConfig djpeg_cell(const sim::WorkloadPoint& pt) {
  return workloads::djpeg_config_from_spec(
      workloads::WorkloadSpec::parse(pt.spec));
}

/// The leakage and lint workloads: every registered one except attack.*,
/// harnessed ones at width=3 (so the default 8 audit samples enumerate the
/// whole 2^3 secret space) with SEMPE_BENCH_ITERS iterations (default 2).
std::vector<std::string> audited_specs() {
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 2);
  std::vector<std::string> specs;
  for (const std::string& name :
       workloads::WorkloadRegistry::instance().names()) {
    // Co-residence attacks audit through the two-tenant scheduler and
    // carry the key-recovery gate; the tenants report owns them.
    if (name.rfind("attack.", 0) == 0) continue;
    // djpeg has no settable secret vector: a smoke point, with the image
    // kept small so it does not dominate the sweep.
    specs.push_back(name == "djpeg" ? "djpeg?pixels=4096&scale=16"
                                    : name + "?width=3&iters=" +
                                          std::to_string(iters));
  }
  return specs;
}

/// The leakage and tenants audit budget: SEMPE_AUDIT_SAMPLES secret
/// vectors; SEMPE_STAT_SAMPLES (>= 2) turns on the statistical tier
/// (security/stat_audit.h) with that many samples per secret class, and
/// SEMPE_STAT_BUDGET caps the adaptive driver's total sample pairs.
security::AuditOptions audit_options(usize default_samples) {
  security::AuditOptions opt;
  opt.samples = sim::env_usize("SEMPE_AUDIT_SAMPLES", default_samples);
  opt.stat_samples = sim::env_usize("SEMPE_STAT_SAMPLES", 0);
  opt.stat_budget = sim::env_usize("SEMPE_STAT_BUDGET", 0);
  return opt;
}

/// The synthetic and scenarios view: per spec, the SeMPE and CTE
/// slowdowns, gated on the functional cross-check of every mode's merged
/// results against the host mirrors ("ok" column).
bool print_mode_matrix(std::FILE* out, const char* prefix,
                       const SweepRun<sim::WorkloadPoint>& run) {
  bool all_ok = true;
  for (const auto& pt : run.points) {
    all_ok = all_ok && pt.results_ok;
    std::fprintf(out, "%s  %-48s  SeMPE %6.2fx   CTE %7.2fx   %s\n", prefix,
                 pt.spec.c_str(), pt.sempe_slowdown(), pt.cte_slowdown(),
                 pt.results_ok ? "ok" : "RESULTS MISMATCH");
    if (!pt.results_ok)
      std::fprintf(out, "  !! %s\n", pt.mismatch_summary().c_str());
  }
  return all_ok;
}

/// The synthetic and scenarios reports: one job per spec at the default
/// machine, SEMPE_BENCH_ITERS harness iterations per run (default 4).
int mode_matrix_report(ReportRun& r,
                       std::vector<std::string> (*specs)(usize iters),
                       const char* prefix) {
  return sweep_report(
      r, sim::workload_grid(specs(sim::env_usize("SEMPE_BENCH_ITERS", 4)), {}),
      sim::run_workload_sweep, sim::workload_json,
      [prefix](auto* out, auto&, auto& run) {
        return print_mode_matrix(out, prefix, run);
      });
}

/// Every synthetic kernel at widths 1 and 4, secrets all false and true.
std::vector<std::string> synthetic_specs(usize iters) {
  std::vector<std::string> specs;
  for (const workloads::SynthKind kind : workloads::all_synth_kinds())
    for (const usize w : {usize{1}, usize{4}})
      for (const char* secrets : {"0", "1"})
        specs.push_back(std::string("synthetic.") +
                        workloads::synth_name(kind) + "?width=" +
                        std::to_string(w) + "&iters=" +
                        std::to_string(iters) + "&secrets=" + secrets);
  return specs;
}

/// One labeled microbench job at the default machine.
MicrobenchJob microbench_job(std::string label, Kind kind, usize w,
                             usize iters) {
  MicrobenchJob j;
  j.label = std::move(label);
  j.spec = sim::microbench_spec(kind, w, iters);
  return j;
}

// The ablation grid, 31 points the report recombines by job label.
constexpr usize kSnapshotWidths = 8;               // W = 1..8, 3 jobs each
constexpr u32 kSpmRates[] = {8, 16, 32, 64, 128};  // B/cycle

std::vector<MicrobenchJob> ablation_grid() {
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  const struct {
    cpu::SnapshotModel model;
    const char* name;
  } models[] = {{cpu::SnapshotModel::kArchRS, "archrs"},
                {cpu::SnapshotModel::kPhyRS, "phyrs"},
                {cpu::SnapshotModel::kLRS, "lrs"}};
  std::vector<MicrobenchJob> jobs;
  // Section 1: snapshot mechanism, 3 configurations per width.
  for (usize w = 1; w <= kSnapshotWidths; ++w)
    for (const auto& m : models) {
      jobs.push_back(microbench_job(std::string("snapshot/") + m.name +
                                        "/W=" + std::to_string(w),
                                    Kind::kOnes, w, iters));
      jobs.back().opt.snapshot_model = m.model;
      if (m.model == cpu::SnapshotModel::kLRS) {
        jobs.back().opt.extra_front_end_depth = 1;  // tagged-rename stage
        jobs.back().opt.rename_width_override = 4;  // tag lookups halve it
      }
    }
  // Section 2: SPM port throughput.
  for (const u32 rate : kSpmRates) {
    jobs.push_back(microbench_job("spm/" + std::to_string(rate) + "B",
                                  Kind::kFibonacci, 4, iters));
    jobs.back().opt.spm_bytes_per_cycle = rate;
  }
  // Section 3: prefetching effect, on then off.
  for (const bool enabled : {true, false}) {
    jobs.push_back(microbench_job(
        std::string("prefetch/") + (enabled ? "on" : "off"), Kind::kOnes, 6,
        iters));
    jobs.back().opt.enable_prefetchers = enabled;
  }
  return jobs;
}

struct Report {
  const char* name;
  const char* what;  // one line for --help
  int (*run)(ReportRun&);
};

const Report kReports[] = {
    // Figure 8 — execution time overhead for libjpeg(-like) decompression
    // with different image output formats, varying input size.
    //
    // Paper shape: overheads between ~31% and ~87%; PPM > GIF > BMP; nearly
    // flat across image sizes (256k..2048k pixels).
    {"fig8", "Figure 8: djpeg overhead by format/size", [](ReportRun& r) {
       return sweep_report(r, djpeg_grid(), sim::run_workload_sweep,
                           sim::djpeg_json, [](auto* out, auto&, auto& run) {
         for (const auto& pt : run.points) {
           const auto cell = djpeg_cell(pt);
           std::fprintf(out, "Fig8  %-4s %5zuk  overhead = %5.1f%%\n",
                        workloads::format_name(cell.format),
                        cell.pixels / 1024,
                        (pt.sempe_slowdown() - 1.0) * 100.0);
         }
         return true;
       });
     }},
    // Figure 9 — cache miss rates (IL1 / DL1 / L2) for the djpeg workload:
    // baseline (dashed, left column) vs SeMPE (solid, right column), per
    // output format and image size.
    //
    // Paper shape: IL1 low and size-independent; DL1 low with SeMPE close
    // to baseline (ShadowMemory locality); L2 higher than DL1 overall.
    {"fig9", "Figure 9: djpeg cache miss rates", [](ReportRun& r) {
       return sweep_report(r, djpeg_grid(), sim::run_workload_sweep,
                           sim::djpeg_json, [](auto* out, auto&, auto& run) {
         for (const auto& pt : run.points) {
           const auto cell = djpeg_cell(pt);
           std::fprintf(out,
               "Fig9  %-4s %5zuk  IL1 %5.2f%%|%5.2f%%  DL1 %5.2f%%|%5.2f%%  "
               "L2 %5.2f%%|%5.2f%%   (baseline|SeMPE)\n",
               workloads::format_name(cell.format), cell.pixels / 1024,
               pt.baseline_miss.il1 * 100, pt.sempe_miss.il1 * 100,
               pt.baseline_miss.dl1 * 100, pt.sempe_miss.dl1 * 100,
               pt.baseline_miss.l2 * 100, pt.sempe_miss.l2 * 100);
         }
         return true;
       });
     }},
    // Figure 10a — execution time slowdown vs nesting depth W (x-axis,
    // 1..10), SeMPE (solid) vs CTE/FaCT (dashed), one series per
    // microbenchmark, log-scale y in the paper.
    //
    // Paper shape: SeMPE ~ W+1 (8.4-10.6x at W=10); CTE from 3-32x at W=1
    // up to 12.9-187.3x at W=10; CTE/SeMPE ratio up to ~18x.
    {"fig10a", "Figure 10a: slowdown vs nesting depth", [](ReportRun& r) {
       return sweep_report(r, fig10_grid(kFig10Widths),
                           sim::run_microbench_sweep, sim::microbench_json,
                           [](auto* out, auto&, auto& run) {
         for (const auto& pt : run.points)
           std::fprintf(out,
               "Fig10a  %-10s W=%2zu  SeMPE %6.2fx   CTE %7.2fx   "
               "(CTE/SeMPE %5.2fx)\n",
               pt.kind().c_str(), pt.width(), pt.sempe_slowdown(),
               pt.cte_slowdown(), pt.cte_vs_sempe());
         return true;
       });
     }},
    // Figure 10b — average slowdown normalized to the ideal case, per W
    // over the four kinds.
    //
    // The ideal for removing SDBCB is the sum of the execution times of all
    // branch paths. Two operational definitions are reported:
    //   * standalone: each path costed in isolation ((W+1) x single-workload
    //     run) — the paper's definition; SeMPE beats it via the prefetching
    //     effect between paths (values < 1).
    //   * combined: all paths executed once within a single run (cross-path
    //     locality already included); SeMPE pays only drains/SPM on top
    //     (values slightly > 1).
    // CTE, by contrast, is far above ideal and grows with W.
    {"fig10b", "Figure 10b: slowdown normalized to the ideal",
     [](ReportRun& r) {
       return sweep_report(r, fig10_grid(kFig10Widths),
                           sim::run_microbench_sweep, sim::microbench_json,
                           [](auto* out, auto&, auto& run) {
         // Rows average only the points this run has; a width with none
         // prints no row.
         for (const usize w : kFig10Widths) {
           double vs_standalone = 0, vs_combined = 0, cte_vs_ideal = 0;
           usize present = 0;
           for (const auto& pt : run.points) {
             if (pt.width() != w) continue;
             ++present;
             vs_standalone += pt.sempe_vs_ideal_standalone();
             vs_combined += pt.sempe_vs_ideal_combined();
             cte_vs_ideal += sim::WorkloadPoint::ratio(
                 pt.cte_cycles, pt.ideal_standalone_cycles);
           }
           if (present == 0) continue;
           const double n = static_cast<double>(present);
           std::fprintf(out,
               "Fig10b  W=%2zu  SeMPE/ideal(standalone) %5.2f   "
               "SeMPE/ideal(combined) %5.2f   CTE/ideal %6.2f\n",
               w, vs_standalone / n, vs_combined / n, cte_vs_ideal / n);
         }
         return true;
       });
     }},
    // Table I — comparison of approaches to eliminate SDBCB.
    //
    // The qualitative rows come from the paper (GhostRider/Raccoon numbers
    // are their reported worst-case overheads; we do not re-implement those
    // systems). The CTE and SeMPE rows are *measured* on this simulator at
    // the paper's deepest nesting configuration (W = 10) of the Fig. 10
    // grid, mirroring how Table I cites the microbenchmark worst case.
    {"table1", "Table I: approaches to eliminate SDBCB", [](ReportRun& r) {
       return sweep_report(r, fig10_grid({10}), sim::run_microbench_sweep,
                           sim::microbench_json,
                           [](auto* out, auto&, auto& run) {
         // Worst case over the points this run has; the full table needs
         // the unrestricted sweep.
         double worst_cte = 0, worst_sempe = 0;
         for (const auto& pt : run.points) {
           worst_cte = std::max(worst_cte, pt.cte_slowdown());
           worst_sempe = std::max(worst_sempe, pt.sempe_slowdown());
         }
         char cte[32], sempe[32];
         std::snprintf(cte, sizeof cte, "%.1fx", worst_cte);
         std::snprintf(sempe, sizeof sempe, "%.1fx", worst_sempe);
         const char* const rows[][5] = {
             {"Aspect", "CTE", "GhostRider", "Raccoon", "SeMPE"},
             {"Approach", "elim.branch", "equal.path", "both paths",
              "both paths"},
             {"Technique", "SW", "HW/SW", "SW", "HW/SW"},
             {"Prog. complexity", "High", "Low", "Low", "Low"},
             {"Reported overheads", "187.3x", "1987x", "452x", "10.6x"},
             {"Measured here (W=10)", cte, "-", "-", sempe},
             {"Simple architecture", "Yes", "No", "Yes", "Yes"},
             {"Backward compatible", "Yes", "No", "No", "Yes"},
         };
         std::fprintf(out, "\nTable I: Comparing approaches to eliminate "
                           "SDBCB\n");
         for (const auto& row : rows)
           std::fprintf(out, "%-22s %-12s %-12s %-12s %-12s\n", row[0],
                        row[1], row[2], row[3], row[4]);
         std::fprintf(out, "\n");
         return true;
       });
     }},
    // Table II — the baseline microarchitecture model.
    //
    // Echoes the configured machine the way the paper reports it, and runs
    // a self-check workload so the table is backed by a live simulation
    // (IPC and cache behavior within sane bounds for the configuration).
    {"table2", "Table II: baseline machine model", [](ReportRun& r) {
       return sweep_report(r,
                           std::vector{microbench_job(
                               "selfcheck/ones/W=2", Kind::kOnes, 2,
                               sim::env_usize("SEMPE_BENCH_ITERS", 20))},
                           sim::run_microbench_sweep, sim::microbench_json,
                           [](auto* out, auto&, auto& run) {
         std::fprintf(out, "\n%s\n",
                      sim::describe(sim::table2_machine()).c_str());
         // A --jobs filter or a non-owning shard can leave the self-check
         // point to another invocation; the table itself still prints.
         for (const auto& pt : run.points)
           std::fprintf(out, "self-check IPC on ones/W=2: %.2f\n",
                        sim::WorkloadPoint::ratio(pt.baseline_instructions,
                                                  pt.baseline_cycles));
         std::fprintf(out, "\n");
         return true;
       });
     }},
    // Ablation studies for the design choices Section IV-F discusses. Not
    // figures from the paper, but the experiments behind its design
    // narrative:
    //
    //   1. Snapshot mechanism: ArchRS (chosen) vs PhyRS (full PRF + RAT
    //      spills, "too much snapshot spilling") vs LRS (lazy spill, but the
    //      tagged rename table taxes every instruction).
    //   2. SPM throughput: how the 64B/cycle port of Table II affects
    //      overhead.
    //   3. Prefetchers: the "prefetching effect" that lets SeMPE approach
    //      (and against the standalone ideal, beat) the sum-of-paths bound.
    {"ablation", "Ablations: snapshot / SPM / prefetch", [](ReportRun& r) {
       return sweep_report(r, ablation_grid(), sim::run_microbench_sweep,
                           sim::microbench_json,
                           [](auto* out, auto& jobs, auto& run) {
         // A filtered or sharded run holds only some of the points, so rows
         // with a missing ingredient are skipped.
         const auto by_job = sim::points_by_job(run);
         const auto find = [&](const std::string& label) {
           for (usize k = 0; k < jobs.size(); ++k)
             if (jobs[k].label == label) return by_job[k];
           return static_cast<const sim::MicrobenchPoint*>(nullptr);
         };
         for (usize w = 1; w <= kSnapshotWidths; ++w) {
           const std::string suffix = "/W=" + std::to_string(w);
           const auto* arch = find("snapshot/archrs" + suffix);
           const auto* phy = find("snapshot/phyrs" + suffix);
           const auto* lrs = find("snapshot/lrs" + suffix);
           if (!arch || !phy || !lrs) continue;
           // Normalize every configuration's protected run against the SAME
           // (ArchRS-machine) unprotected baseline: LRS's rename-table stage
           // taxes the whole program — including code outside secure
           // regions — which is exactly the paper's objection to it.
           const double b = static_cast<double>(arch->baseline_cycles);
           std::fprintf(out,
               "Ablation/snapshot  W=%zu  ArchRS %5.2fx   PhyRS %5.2fx   "
               "LRS %5.2fx (+%4.1f%% tax on unprotected code)\n",
               w, static_cast<double>(arch->sempe_cycles) / b,
               static_cast<double>(phy->sempe_cycles) / b,
               static_cast<double>(lrs->sempe_cycles) / b,
               (static_cast<double>(lrs->baseline_cycles) / b - 1.0) * 100.0);
         }
         for (const u32 rate : kSpmRates)
           if (const auto* pt = find("spm/" + std::to_string(rate) + "B"))
             std::fprintf(out,
                 "Ablation/spm  %3u B/cycle  SeMPE %5.2fx (fibonacci, W=4)\n",
                 rate, pt->sempe_slowdown());
         for (const bool on : {true, false})
           if (const auto* pt = find(on ? "prefetch/on" : "prefetch/off"))
             std::fprintf(out,
                 "Ablation/prefetch  %s  SeMPE/ideal(standalone) = %.3f "
                 "(ones, W=6)\n",
                 on ? "on " : "off", pt->sempe_vs_ideal_standalone());
         return true;
       });
     }},
    // Synthetic kernel sweep — every kernel of the synthetic family
    // (workloads/synthetic.h) timed across the full mode matrix (legacy
    // baseline, SeMPE, CTE) at nesting widths 1 and 4, with the secrets all
    // false (the paper's Fig. 10 convention: the baseline skips every
    // guarded level, so the SeMPE slowdown ~ W+1) and all true (every mode
    // executes every level).
    {"synthetic", "synthetic kernels x {legacy, SeMPE, CTE}",
     [](ReportRun& r) {
       return mode_matrix_report(r, synthetic_specs, "synthetic");
     }},
    // Real-scenario sweep — the crypto and data-structure kernels of the
    // scenario pack (workloads/scenarios.h) across the same mode matrix,
    // widths and secrets as synthetic. The CTE column is where the paper's
    // 10-100x software constant-time overheads show up: the oblivious
    // T-table scan and worst-case probe windows do real extra work.
    {"scenarios", "crypto + data-structure scenarios x {legacy, SeMPE, CTE}",
     [](ReportRun& r) {
       return mode_matrix_report(r, workloads::scenario_sweep_specs,
                                 "scenario");
     }},
    // Leakage audit — every audited workload swept over a sampled secret
    // space (security/audit.h) and judged per attacker channel under
    // legacy, SeMPE, and (where available) CTE. This is the end-to-end
    // check of the paper's Section III claim: the exit status is nonzero if
    // ANY channel of ANY workload stays open under SeMPE, or any run's
    // merged results diverge from the host mirrors. The statistical
    // verdicts are reported per mode but do NOT move the exit status — the
    // SeMPE gate stays the exact-equality tier.
    {"leakage", "security audit: every workload x secret space x all modes",
     [](ReportRun& r) {
       const std::vector<std::string> specs = audited_specs();
       return sweep_report(r, sim::leakage_grid(specs, audit_options(8)),
                           sim::run_leakage_sweep, sim::leakage_json,
                           [](auto* out, auto&, auto& run) {
         bool all_ok = true;
         for (const auto& pt : run.points) {
           const security::WorkloadAudit& a = pt.audit;
           all_ok = all_ok && pt.sempe_closed() && pt.results_ok();
           std::fprintf(out, "leakage  %-58s  W=%zu n=%zu", a.spec.c_str(),
                        a.secret_width, a.masks.size());
           for (const security::ModeAudit& m : a.modes) {
             if (m.indistinguishable())
               std::fprintf(out, "  %s: closed", m.mode.c_str());
             else
               std::fprintf(out, "  %s: OPEN %.2fb [%s]", m.mode.c_str(),
                            m.leaked_bits(), m.open_channels().c_str());
             if (m.stat_verdict() != security::StatVerdict::kNotRun)
               std::fprintf(out, " stat=%s(|t|=%.2f)",
                            security::stat_verdict_name(m.stat_verdict()),
                            m.stat_max_t() < 0 ? -m.stat_max_t()
                                               : m.stat_max_t());
           }
           std::fprintf(out, "  %s\n",
                        pt.results_ok() ? "ok" : "RESULTS MISMATCH");
           if (!pt.sempe_closed()) {
             const security::ModeAudit* s = a.mode("sempe");
             std::fprintf(out, "  !! SeMPE leak: %s\n",
                          s != nullptr && !s->first_divergence().empty()
                              ? s->first_divergence().c_str()
                              : "results mismatch");
           }
         }
         return all_ok;
       });
     }},
    // Static taint lint — the leakage report's workloads linted under the
    // legacy/SeMPE/CTE policies (security/taint_lint.h) and cross-checked
    // against the dynamic leakage audit (sim::measure_lint). This is the
    // gate for the constant-time discipline: the exit status is nonzero if
    //
    //   - any workload is statically clean but dynamically distinguishable
    //     (the lint missed a real channel — a soundness bug),
    //   - any CTE variant has a static finding, or
    //   - any secret-carrying workload lints clean under the legacy policy
    //     (the lint lost the taint).
    //
    // Static-dirty-but-dynamic-clean points (e.g. synthetic.ibr under the
    // SeMPE policy, whose regions the verifier rejects for containing jalr)
    // print as warnings and do not gate.
    {"lint", "static taint lint, cross-checked against the audit",
     [](ReportRun& r) {
       const std::vector<std::string> specs = audited_specs();
       security::AuditOptions opt;
       opt.samples = sim::env_usize("SEMPE_AUDIT_SAMPLES", 8);
       return sweep_report(r, sim::lint_grid(specs, opt), sim::run_lint_sweep,
                           sim::lint_json, [](auto* out, auto&, auto& run) {
         bool all_ok = true;
         for (const auto& pt : run.points) {
           const security::WorkloadLint& l = pt.lint;
           all_ok = all_ok && pt.ok();
           std::fprintf(out,
               "lint  %-58s  W=%zu  legacy: %zu  sempe: %zu (excused %zu)  "
               "cte: %s  %s\n",
               l.spec.c_str(), l.secret_width,
               l.natural_legacy.findings.size(),
               l.natural_sempe.findings.size(), l.natural_sempe.excused_sjmps,
               l.has_cte ? std::to_string(l.cte.findings.size()).c_str() : "-",
               pt.ok() ? "ok" : "FAIL");
           if (!pt.ok())
             std::fprintf(out, "  !! %s\n", pt.failure_summary().c_str());
           if (!pt.warnings.empty())
             std::fprintf(out, "  (warn) %s\n", pt.warning_summary().c_str());
         }
         return all_ok;
       });
     }},
    // Multi-tenant co-residence — the attack.* workloads (workloads/
    // attack.h) audited end-to-end as a leakage sweep: for every point, a
    // victim tenant and a co-resident attacker tenant are interleaved by
    // sim::Scheduler over one shared mem::Hierarchy, the attacker's probe
    // observations feed both leakage-verdict tiers, and its guessed key
    // masks are scored into a per-mode key-bit recovery rate.
    //
    // This is the end-to-end check of the paper's threat model: the exit
    // status is nonzero unless, for EVERY point,
    //
    //   - the legacy baseline recovers >= 90% of the victim's key bits (an
    //     attack the harness cannot demonstrate proves nothing),
    //   - SeMPE and CTE stay at chance (exact tier clean, or statistical
    //     tier no-evidence), and
    //   - every run's merged results match the host mirrors.
    {"tenants", "co-residence attacks: key-bit recovery per mode",
     [](ReportRun& r) {
       const std::vector<std::string> specs = {
           // The acceptance-criterion point, at its registry defaults.
           "attack.prime_probe?victim=crypto.modexp",
           // Wider key sweeps of both probe styles against the same victim.
           "attack.prime_probe?victim=crypto.modexp&width=4&size=8&bits=8&"
           "iters=2",
           "attack.flush_reload?victim=crypto.modexp&width=4&size=8&bits=8&"
           "iters=2",
       };
       return sweep_report(r, sim::leakage_grid(specs, audit_options(4)),
                           sim::run_leakage_sweep, sim::tenant_json,
                           [](auto* out, auto&, auto& run) {
         bool all_ok = true;
         for (const auto& pt : run.points) {
           const security::WorkloadAudit& a = pt.audit;
           const bool gate = pt.legacy_recovers() && pt.at_chance("sempe") &&
                             pt.at_chance("cte") && pt.results_ok();
           all_ok = all_ok && gate;
           std::fprintf(out, "tenants  %-70s  W=%zu n=%zu", a.spec.c_str(),
                        a.secret_width, a.masks.size());
           for (const security::ModeAudit& m : a.modes)
             std::fprintf(out, "  %s: %.0f%%%s", m.mode.c_str(),
                          100.0 * m.recovery_rate(),
                          m.indistinguishable() ? " (closed)" : "");
           std::fprintf(out, "  %s\n", gate ? "ok" : "GATE FAIL");
           if (!pt.legacy_recovers())
             std::fprintf(out, "  !! legacy recovered only %.1f%% of the key\n",
                          100.0 * pt.recovery_rate("legacy"));
           if (!pt.at_chance("sempe") || !pt.at_chance("cte"))
             std::fprintf(out, "  !! a protected mode is distinguishable: %s\n",
                          a.mode("sempe") != nullptr
                              ? a.mode("sempe")->first_divergence().c_str()
                              : "");
           if (!pt.results_ok()) std::fprintf(out, "  !! results mismatch\n");
         }
         return all_ok;
       });
     }},
};

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s REPORT [--threads=N] [--json[=FILE]] "
               "[--trace-out=FILE]\n"
               "          [--metrics-out=FILE] [--progress] [--jobs=REGEX]\n"
               "          [--shard=i/N] [--cache-dir=DIR] [--journal=FILE]\n"
               "reports:\n",
               argv0);
  for (const Report& r : kReports)
    std::fprintf(stderr, "  %-10s %s\n", r.name, r.what);
  std::fprintf(stderr,
               "flags:\n"
               "  --threads=N      sweep worker threads (default: all)\n"
               "  --json[=F]       deterministic results to F (or stdout)\n"
               "  --trace-out=F    Chrome trace-event timeline (Perfetto)\n"
               "  --metrics-out=F  structured metric report\n"
               "  --progress       stderr progress meter (done/total, ETA)\n"
               "  --jobs=REGEX     run only jobs whose label matches REGEX\n"
               "  --shard=i/N      run shard i of N (merge with sempe_merge)\n"
               "  --cache-dir=D    reuse and store results under D\n"
               "  --journal=F      append results to F; rerun to resume\n"
               "env: SEMPE_BENCH_ITERS, SEMPE_DJPEG_SCALE size the workloads;\n"
               "     SEMPE_AUDIT_SAMPLES, SEMPE_STAT_SAMPLES, "
               "SEMPE_STAT_BUDGET the audits\n");
}

}  // namespace

int main(int argc, char** argv) {
  const BatchCli cli = sim::parse_batch_cli(argc, argv);
  if (!cli.ok || cli.help) {
    if (!cli.ok) std::fprintf(stderr, "bad argument: %s\n", cli.error.c_str());
    print_usage(argv[0]);
    return cli.ok ? 0 : 1;
  }
  // The first argument parse_batch_cli leaves names the report; anything
  // after it is a usage error.
  const Report* report = nullptr;
  for (const Report& r : kReports)
    if (argc > 1 && std::strcmp(argv[1], r.name) == 0) report = &r;
  if (report == nullptr || argc > 2) {
    if (argc <= 1)
      std::fprintf(stderr, "missing report name\n");
    else if (report == nullptr)
      std::fprintf(stderr, "unknown report: %s\n", argv[1]);
    else
      std::fprintf(stderr, "unknown argument: %s\n", argv[2]);
    print_usage(argv[0]);
    return 1;
  }

  ReportRun run{cli, report->name, make_obs_session(cli)};
  try {
    return report->run(run);
  } catch (const SimError& e) {
    // A malformed knob, spec or cached blob: a diagnostic, never
    // std::terminate. Uninstall the session first, as sempe_run does.
    obs::set_session(nullptr);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
