// Figure 10a — execution time slowdown vs nesting depth W (x-axis, 1..10),
// SeMPE (solid) vs CTE/FaCT (dashed), one series per microbenchmark,
// log-scale y in the paper.
//
// Paper shape: SeMPE ~ W+1 (8.4-10.6x at W=10); CTE from 3-32x at W=1 up to
// 12.9-187.3x at W=10; CTE/SeMPE ratio up to ~18x.
//
// SEMPE_BENCH_ITERS sets the iteration count per run (default 20). The 40
// (kind, W) points run concurrently through sim/batch_runner.h; output
// order is fixed regardless of --threads.
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const sim::BatchCli cli = sim::parse_batch_cli(argc, argv);
  int exit_code = 0;
  if (sim::batch_cli_should_exit(cli, argc, argv,
                                 "Figure 10a: slowdown vs nesting depth",
                                 &exit_code))
    return exit_code;
  std::FILE* const out = sim::report_stream(cli);
  auto obs_session = sim::make_obs_session(cli);

  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  auto jobs = sim::microbench_grid(
      sim::all_kinds(), {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, iters, {});
  sim::apply_job_filter(jobs, cli);

  const Stopwatch sweep_sw;
  const auto run = sim::run_microbench_sweep(jobs, sim::sweep_options(cli));
  const double secs = sweep_sw.elapsed_seconds();

  for (const auto& pt : run.points) {
    std::fprintf(out,
        "Fig10a  %-10s W=%2zu  SeMPE %6.2fx   CTE %7.2fx   (CTE/SeMPE "
        "%5.2fx)\n",
        pt.kind().c_str(), pt.width(), pt.sempe_slowdown(),
        pt.cte_slowdown(), pt.cte_vs_sempe());
  }
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), secs,
               sim::resolve_threads(cli.threads, run.points.size()));

  if (!sim::finish_obs_session(cli, "fig10a", std::move(obs_session)))
    return 1;

  if (cli.want_json &&
      !sim::emit_json(cli, sim::microbench_json("fig10a", jobs, run)))
    return 1;
  return 0;
}
