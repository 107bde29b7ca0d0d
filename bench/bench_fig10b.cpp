// Figure 10b — average slowdown normalized to the ideal case.
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
//
// All 40 (kind, W) points run concurrently through sim/batch_runner.h and
// are then averaged per W over the four kinds.
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const sim::BatchCli cli = sim::parse_batch_cli(argc, argv);
  int exit_code = 0;
  if (sim::batch_cli_should_exit(cli, argc, argv,
                                 "Figure 10b: slowdown normalized to the ideal",
                                 &exit_code))
    return exit_code;
  std::FILE* const out = sim::report_stream(cli);
  auto obs_session = sim::make_obs_session(cli);

  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  const std::vector<usize> widths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto jobs = sim::microbench_grid(sim::all_kinds(), widths, iters, {});
  sim::apply_job_filter(jobs, cli);

  const Stopwatch sweep_sw;
  const auto run = sim::run_microbench_sweep(jobs, sim::sweep_options(cli));
  const double secs = sweep_sw.elapsed_seconds();

  // The report averages per W over the kinds; a --jobs filter or --shard
  // may leave holes, so rows average only the points this run has (and a
  // width with no points prints no row).
  for (usize wi = 0; wi < widths.size(); ++wi) {
    double vs_standalone = 0, vs_combined = 0, cte_vs_standalone = 0;
    usize present = 0;
    for (const auto& pt : run.points) {
      if (pt.width() != widths[wi]) continue;
      ++present;
      vs_standalone += pt.sempe_vs_ideal_standalone();
      vs_combined += pt.sempe_vs_ideal_combined();
      cte_vs_standalone += sim::WorkloadPoint::ratio(
          pt.cte_cycles, pt.ideal_standalone_cycles);
    }
    if (present == 0) continue;
    const double n = static_cast<double>(present);
    std::fprintf(out,
        "Fig10b  W=%2zu  SeMPE/ideal(standalone) %5.2f   "
        "SeMPE/ideal(combined) %5.2f   CTE/ideal %6.2f\n",
        widths[wi], vs_standalone / n, vs_combined / n,
        cte_vs_standalone / n);
  }
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), secs,
               sim::resolve_threads(cli.threads, run.points.size()));

  if (!sim::finish_obs_session(cli, "fig10b", std::move(obs_session)))
    return 1;

  if (cli.want_json &&
      !sim::emit_json(cli, sim::microbench_json("fig10b", jobs, run)))
    return 1;
  return 0;
}
