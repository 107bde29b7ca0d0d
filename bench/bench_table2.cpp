// Table II — the baseline microarchitecture model.
//
// Echoes the configured machine the way the paper reports it, and runs a
// self-check workload so the table is backed by a live simulation (IPC and
// cache behavior within sane bounds for the configuration). The self-check
// point dispatches through sim/batch_runner.h like every other bench.
#include <cstdio>

#include "sim/batch_runner.h"
#include "sim/machine_config.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const sim::BatchCli cli = sim::parse_batch_cli(argc, argv);
  int exit_code = 0;
  if (sim::batch_cli_should_exit(cli, argc, argv,
                                 "Table II: baseline machine model",
                                 &exit_code))
    return exit_code;
  std::FILE* const out = sim::report_stream(cli);
  auto obs_session = sim::make_obs_session(cli);

  const auto cfg = sim::table2_machine();

  std::vector<sim::MicrobenchJob> jobs(1);
  jobs[0].label = "selfcheck/ones/W=2";
  jobs[0].spec = sim::microbench_spec(
      workloads::Kind::kOnes, 2, sim::env_usize("SEMPE_BENCH_ITERS", 20));
  sim::apply_job_filter(jobs, cli);

  const Stopwatch sweep_sw;
  const auto run = sim::run_microbench_sweep(jobs, sim::sweep_options(cli));
  const double secs = sweep_sw.elapsed_seconds();

  std::fprintf(out, "\n%s\n", sim::describe(cfg).c_str());
  // A --jobs filter or a non-owning shard can leave the single self-check
  // point to another invocation; the table itself still prints.
  if (!run.points.empty()) {
    const auto& pt = run.points[0];
    const double ipc =
        sim::WorkloadPoint::ratio(pt.baseline_instructions, pt.baseline_cycles);
    std::fprintf(out, "self-check IPC on ones/W=2: %.2f\n", ipc);
  }
  std::fprintf(out, "\n");
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), secs,
               sim::resolve_threads(cli.threads, run.points.size()));

  if (!sim::finish_obs_session(cli, "table2", std::move(obs_session)))
    return 1;

  if (cli.want_json &&
      !sim::emit_json(cli, sim::microbench_json("table2", jobs, run)))
    return 1;
  return 0;
}
