// Parallel experiment driver ("batch runner") for the evaluation pipeline.
//
// Every figure/table of the paper is a sweep over independent experiment
// points: each point builds its own Program and Simulator from its config
// and is deterministic given that config (util/rng.h), so points can run
// concurrently with nothing shared. The runner shards a job list over a
// thread pool and writes each result into a pre-sized vector slot by
// index, which makes the output ordering — and any JSON serialization of
// it — byte-identical regardless of thread count.
//
// Four job families share that one orchestrated sweep, and every job names
// a registry spec (workloads/registry.h), so each figure has one build
// path and one measurement path:
//   workload    measure_workload — fig8/fig9 (djpeg), synthetic, scenarios
//   microbench  a workload point plus its two ideal runs — fig10a/fig10b,
//               table1/table2, ablation
//   leakage     the secret-space audit — leakage, tenants
//   lint        the static lint checked against the audit — lint
// djpeg_json and tenant_json are report views, not families.
//
// The sempe_bench reports (bench/sempe_bench.cpp) all dispatch their sweeps
// through this driver and share the same CLI surface:
//
//   --threads=N      worker threads (default: all hardware threads)
//   --json[=F]       emit machine-readable results to file F (or stdout)
//   --trace-out=F    Chrome trace-event timeline of the sweep (obs/)
//   --metrics-out=F  end-of-run structured metric report (obs/)
//   --progress       stderr progress meter (jobs done/total, ETA)
//   --jobs=REGEX     keep only jobs whose label matches REGEX
//   --shard=i/N      run shard i of a deterministic N-way partition
//   --cache-dir=D    content-addressed result cache (sim/sweep_cache.h)
//   --journal=F      append-only result journal; rerun to resume a
//                    killed sweep
//
// The observability flags feed the src/obs/ session the driver installs
// around each sweep; none of them perturb the deterministic --json
// document (progress and the human report go to stderr, metrics and
// traces to their own files).
//
// The orchestration invariant: the --json document is a pure function of
// the job list. Thread count, shard assignment (after sempe_merge), a
// warm vs cold cache, and a resumed vs fresh sweep all produce
// byte-identical output — every one of those knobs only changes HOW the
// points get computed, never what they contain.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "sim/experiment.h"
#include "sim/sweep_cache.h"
#include "util/clock.h"
#include "workloads/djpeg.h"
#include "workloads/kernels.h"

namespace sempe::sim {

/// Resolve a requested worker count: 0 means "all hardware threads"; the
/// result is clamped to [1, jobs] for jobs > 0.
usize resolve_threads(usize requested, usize jobs);

/// Run fn(i) for every i in [0, n) on up to `threads` workers and return
/// the results in index order. Job exceptions are captured and the
/// lowest-index one is rethrown after all workers join.
template <typename Fn>
auto run_indexed(usize n, usize threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, usize>> {
  using R = std::invoke_result_t<Fn&, usize>;
  std::vector<R> results(n);
  if (n == 0) return results;
  threads = resolve_threads(threads, n);
  if (threads <= 1) {
    for (usize i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<usize> next{0};
  std::mutex errors_mu;
  std::vector<std::pair<usize, std::exception_ptr>> errors;
  auto worker = [&] {
    for (;;) {
      const usize i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errors_mu);
        errors.emplace_back(i, std::current_exception());
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (usize t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (!errors.empty()) {
    const auto first = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
  return results;
}

/// run_indexed with per-job observability: when a session is installed
/// (obs::session() != nullptr), each job gets a trace span named
/// label_of(i) on its worker's track — with its queue wait (sweep start to
/// job start) attached as an arg — plus a "job.execute_ns" timing
/// histogram sample, a deterministic "jobs.completed" count, and a
/// progress tick. With no session this forwards straight to run_indexed.
template <typename Fn, typename LabelFn>
auto run_indexed_labeled(usize n, usize threads, Fn&& fn, LabelFn&& label_of)
    -> std::vector<std::invoke_result_t<Fn&, usize>> {
  obs::Session* const os = obs::session();
  if (os == nullptr)
    return run_indexed(n, threads, std::forward<Fn>(fn));
  if (os->progress() != nullptr)
    os->progress()->start(n, resolve_threads(threads, n));
  const u64 sweep_epoch = mono_ns();
  const auto job_done = [os](const std::string& label, u64 begin_ns,
                             bool failed) {
    const u64 ns = mono_ns() - begin_ns;
    if (os->trace() != nullptr) os->trace()->end(label);
    os->timing().local().hist("job.execute_ns").record(ns);
    if (os->metrics_enabled())
      os->metrics().local().add(failed ? "jobs.failed" : "jobs.completed");
    if (os->progress() != nullptr) os->progress()->tick(ns);
  };
  const auto finish_sweep = [os, sweep_epoch] {
    os->timing().local().add("sweep.wall_ns", mono_ns() - sweep_epoch);
    os->timing().local().add("sweep.count");
    if (os->progress() != nullptr) os->progress()->finish();
  };
  try {
    auto results = run_indexed(n, threads, [&](usize i) {
      const u64 begin_ns = mono_ns();
      const std::string label = label_of(i);
      if (os->trace() != nullptr)
        os->trace()->begin(label, "queue_wait_us",
                           (begin_ns - sweep_epoch) / 1000);
      try {
        auto r = fn(i);
        job_done(label, begin_ns, /*failed=*/false);
        return r;
      } catch (...) {
        // Keep B/E spans balanced and the failure visible in the metrics.
        job_done(label, begin_ns, /*failed=*/true);
        throw;
      }
    });
    finish_sweep();
    return results;
  } catch (...) {
    // The rethrow path still records the sweep and terminates the
    // progress meter's \r line — otherwise the escaping exception's
    // diagnostic would land mid-line on a half-drawn meter.
    finish_sweep();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Experiment job specs.

/// A registry-resolved workload spec (see workloads/registry.h): the job
/// form of every performance sweep, Figs. 8/9 (djpeg) included.
struct WorkloadJob {
  std::string label;  // e.g. "synthetic.ptr_chase/W=4" or "PPM/256k"
  std::string spec;   // e.g. "synthetic.ptr_chase?size=4096&width=4"
  MicrobenchOptions opt{};  // machine knobs only (see measure_workload)
};

/// A workload job measured with its two ideal runs (see
/// measure_microbench): the Fig. 10 / Table I / ablation job form, over
/// specs like "micro.ones?width=2&iters=20&secrets=0".
struct MicrobenchJob : WorkloadJob {};

/// One workload spec audited over the secret space (see measure_leakage).
/// Co-residence attack specs (attack.*, workloads/attack.h) are ordinary
/// leakage jobs: the victim sub-spec, probe knobs and scheduler quantum
/// all travel inside the spec parameters.
struct LeakageJob {
  std::string label;  // e.g. "synthetic.cond_branch"
  std::string spec;   // e.g. "synthetic.cond_branch?width=3&iters=2"
  security::AuditOptions opt{};
};

/// One workload spec statically linted and cross-checked against the
/// dynamic leakage audit (see measure_lint).
struct LintJob {
  std::string label;  // e.g. "synthetic.cond_branch"
  std::string spec;   // e.g. "synthetic.cond_branch?width=3&iters=2"
  security::AuditOptions opt{};  // for the dynamic cross-check half
};

// ---------------------------------------------------------------------------
// Sweep orchestration: shard selection + cache/journal resolution + the
// parallel execution of whatever is left.

/// Deterministic shard assignment: job i belongs to shard `index` of
/// `count` iff i % count == index. Round-robin (not contiguous blocks) so
/// every shard samples the whole grid — jobs at nearby indices tend to
/// share a generator and a cost profile.
struct ShardSpec {
  usize index = 0;
  usize count = 1;
};

/// Everything that controls HOW a sweep executes. None of these fields
/// may change the result content (the byte-identity contract).
struct SweepOptions {
  usize threads = 0;         // 0 = all hardware threads
  ShardSpec shard;
  std::string cache_dir;     // content-addressed cache root ("" = off)
  std::string journal_path;  // append-only result journal ("" = off)
  std::string fingerprint;   // "" = sempe::code_fingerprint()
};

/// The outcome of one orchestrated sweep. `points[k]` is the result of
/// job `indices[k]` of the original job list; with no shard and no
/// --jobs filter upstream, indices is the identity and points is simply
/// job-ordered.
template <typename Point>
struct SweepRun {
  std::vector<Point> points;
  std::vector<usize> indices;  // global job index per point, ascending
  usize total_jobs = 0;        // size of the full (pre-shard) job list
  ShardSpec shard;
  CacheStats cache;            // how each selected job was resolved
};

SweepRun<MicrobenchPoint> run_microbench_sweep(
    const std::vector<MicrobenchJob>& jobs, const SweepOptions& opt);
SweepRun<WorkloadPoint> run_workload_sweep(
    const std::vector<WorkloadJob>& jobs, const SweepOptions& opt);
SweepRun<LeakagePoint> run_leakage_sweep(const std::vector<LeakageJob>& jobs,
                                         const SweepOptions& opt);
SweepRun<LintPoint> run_lint_sweep(const std::vector<LintJob>& jobs,
                                   const SweepOptions& opt);

/// Map a sweep's points back onto the full job grid: result[g] is the
/// point of job g, or nullptr when job g was not part of this run
/// (owned by another shard). For index-structured human reports (the
/// ablation report) that address points by grid position.
template <typename Point>
std::vector<const Point*> points_by_job(const SweepRun<Point>& run) {
  std::vector<const Point*> by_job(run.total_jobs, nullptr);
  for (usize k = 0; k < run.indices.size(); ++k)
    by_job[run.indices[k]] = &run.points[k];
  return by_job;
}

/// The Fig. 10 spec of one (kind, W) point: `iters` iterations with every
/// secret false, e.g. "micro.ones?width=2&iters=20&secrets=0".
std::string microbench_spec(workloads::Kind kind, usize width, usize iters);
/// Cartesian sweeps (kind-/format-major, so a figure's series stay
/// contiguous). Labels: "ones/W=2" and "PPM/256k".
std::vector<MicrobenchJob> microbench_grid(
    const std::vector<workloads::Kind>& kinds, const std::vector<usize>& widths,
    usize iters, const MicrobenchOptions& opt);
std::vector<WorkloadJob> djpeg_grid(
    const std::vector<workloads::OutputFormat>& formats,
    const std::vector<usize>& pixel_sizes, usize scale);

/// One job per spec; labels default to the spec text.
std::vector<WorkloadJob> workload_grid(const std::vector<std::string>& specs,
                                       const MicrobenchOptions& opt);
std::vector<LeakageJob> leakage_grid(const std::vector<std::string>& specs,
                                     const security::AuditOptions& opt);
std::vector<LintJob> lint_grid(const std::vector<std::string>& specs,
                               const security::AuditOptions& opt);

/// The four Fig. 7 microbenchmark kinds.
const std::vector<workloads::Kind>& all_kinds();
/// The four djpeg image sizes (pixels) of Figs. 8 and 9.
const std::vector<usize>& djpeg_sizes();

// ---------------------------------------------------------------------------
// Machine-readable results. Every document opens with a `meta` header
// (schema version, experiment name, workload description, mode list) ahead
// of the `points` array. The JSON contains only deterministic simulation
// outputs — no wall-clock times, and the header's `threads` field is the
// constant 0 ("thread-count invariant"; the actual worker count goes to
// stderr) — so a sweep serializes to byte-identical text for any --threads
// value.

inline constexpr int kResultSchemaVersion = 3;

// One emitter per family, plus the report views tenant_json and
// djpeg_json. `jobs` is always the FULL job list (shard documents carry
// the same meta header as the unsharded run; labels resolve through
// run.indices). A sharded run (shard.count > 1) adds a "shard" meta line
// and a per-point "_index" so sempe_merge can reassemble the unsharded
// document byte-for-byte.
std::string microbench_json(const std::string& experiment,
                            const std::vector<MicrobenchJob>& jobs,
                            const SweepRun<MicrobenchPoint>& run);
std::string workload_json(const std::string& experiment,
                          const std::vector<WorkloadJob>& jobs,
                          const SweepRun<WorkloadPoint>& run);
std::string leakage_json(const std::string& experiment,
                         const std::vector<LeakageJob>& jobs,
                         const SweepRun<LeakagePoint>& run);
std::string lint_json(const std::string& experiment,
                      const std::vector<LintJob>& jobs,
                      const SweepRun<LintPoint>& run);
/// The co-residence report view over a leakage sweep of attack.* specs:
/// per-point recovery rates per mode, plus the greppable gate flags
/// (`legacy_recovery_above_chance`, `sempe_at_chance`, `cte_at_chance`)
/// CI pins the acceptance criterion on.
std::string tenant_json(const std::string& experiment,
                        const std::vector<LeakageJob>& jobs,
                        const SweepRun<LeakagePoint>& run);
/// The Figs. 8/9 report view over a workload sweep of djpeg specs: format
/// and pixels (read from the canonical spec), cycles, instructions, SeMPE
/// overhead and both modes' cache miss rates.
std::string djpeg_json(const std::string& experiment,
                       const std::vector<WorkloadJob>& jobs,
                       const SweepRun<WorkloadPoint>& run);

/// Plain job-ordered point vectors (one point per job, no shard), for
/// callers that measure points themselves. Same bytes as an unsharded
/// SweepRun.
std::string workload_json(const std::string& experiment,
                          const std::vector<WorkloadJob>& jobs,
                          const std::vector<WorkloadPoint>& points);
std::string leakage_json(const std::string& experiment,
                         const std::vector<LeakageJob>& jobs,
                         const std::vector<LeakagePoint>& points);

// ---------------------------------------------------------------------------
// Shared bench CLI.

struct BatchCli {
  usize threads = 0;        // 0 = all hardware threads
  bool want_json = false;
  std::string json_path;    // empty with want_json set = stdout
  std::string trace_path;   // --trace-out=F (empty: tracing off)
  std::string metrics_path; // --metrics-out=F (empty: metrics off)
  bool progress = false;    // --progress: stderr sweep progress meter
  usize shard_index = 0;    // --shard=i/N
  usize shard_count = 1;
  std::string cache_dir;    // --cache-dir=D (empty: cache off)
  std::string journal_path; // --journal=F (empty: journal off)
  std::string jobs_regex;   // --jobs=REGEX (empty: keep every job)
  bool help = false;
  bool ok = true;           // false: unrecognized argument
  std::string error;        // the offending argument
};

/// Strip the flags this driver owns (--threads=N, --json[=F], --help) out
/// of argv, compacting argc. Anything left besides argv[0] is the caller's
/// problem (sempe_bench takes the first leftover as its report name and
/// treats any other as a usage error). Numeric values must be plain
/// decimal digits (parse_decimal).
BatchCli parse_batch_cli(int& argc, char** argv);

/// The SweepOptions the CLI flags ask for (threads, shard, cache,
/// journal; fingerprint left at the build default).
SweepOptions sweep_options(const BatchCli& cli);

/// std::regex_search of the ECMAScript `pattern` in `label`. Out of line
/// so <regex> stays confined to batch_runner.cpp.
bool label_matches(const std::string& label, const std::string& pattern);

/// Apply --jobs=REGEX: drop every job whose label does not match
/// (label_matches). An empty surviving list is legal — the sweep runs
/// zero jobs and the JSON has an empty points array. parse_batch_cli has
/// already validated the pattern.
template <typename Job>
void apply_job_filter(std::vector<Job>& jobs, const BatchCli& cli) {
  if (cli.jobs_regex.empty()) return;
  jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                            [&](const Job& j) {
                              return !label_matches(j.label, cli.jobs_regex);
                            }),
             jobs.end());
}

/// Write `json` to cli.json_path (stdout when empty). Returns false and
/// prints a diagnostic on I/O failure.
bool emit_json(const BatchCli& cli, const std::string& json);

/// Serialize and write a session's outputs (either path may be empty =
/// skip). Shared by the sempe_bench and sempe_run drivers. Returns false
/// (with a stderr diagnostic) on I/O failure.
bool write_obs_outputs(obs::Session& session, const std::string& experiment,
                       const std::string& trace_path,
                       const std::string& metrics_path);

}  // namespace sempe::sim
