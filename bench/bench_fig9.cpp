// Figure 9 — cache miss rates (IL1 / DL1 / L2) for the djpeg workload:
// baseline (dashed, left column) vs SeMPE (solid, right column), per output
// format and image size.
//
// Paper shape: IL1 low and size-independent; DL1 low with SeMPE close to
// baseline (ShadowMemory locality); L2 higher than DL1 overall.
//
// The 12 (format, size) cells run concurrently as workload-family sweeps
// (sim/batch_runner.h).
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  using workloads::OutputFormat;
  const sim::BatchCli cli = sim::parse_batch_cli(argc, argv);
  int exit_code = 0;
  if (sim::batch_cli_should_exit(cli, argc, argv,
                                 "Figure 9: djpeg cache miss rates",
                                 &exit_code))
    return exit_code;
  std::FILE* const out = sim::report_stream(cli);
  auto obs_session = sim::make_obs_session(cli);

  const usize scale = sim::env_usize("SEMPE_DJPEG_SCALE", 8);
  auto jobs = sim::djpeg_grid(
      {OutputFormat::kPpm, OutputFormat::kGif, OutputFormat::kBmp},
      sim::djpeg_sizes(), scale);
  sim::apply_job_filter(jobs, cli);

  const Stopwatch sweep_sw;
  const auto run = sim::run_workload_sweep(jobs, sim::sweep_options(cli));
  const double secs = sweep_sw.elapsed_seconds();

  for (const auto& pt : run.points) {
    const auto cell = workloads::djpeg_config_from_spec(
        workloads::WorkloadSpec::parse(pt.spec));
    std::fprintf(out,
        "Fig9  %-4s %5zuk  IL1 %5.2f%%|%5.2f%%  DL1 %5.2f%%|%5.2f%%  "
        "L2 %5.2f%%|%5.2f%%   (baseline|SeMPE)\n",
        workloads::format_name(cell.format), cell.pixels / 1024,
        pt.baseline_miss.il1 * 100, pt.sempe_miss.il1 * 100,
        pt.baseline_miss.dl1 * 100, pt.sempe_miss.dl1 * 100,
        pt.baseline_miss.l2 * 100, pt.sempe_miss.l2 * 100);
  }
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), secs,
               sim::resolve_threads(cli.threads, run.points.size()));

  if (!sim::finish_obs_session(cli, "fig9", std::move(obs_session)))
    return 1;

  if (cli.want_json &&
      !sim::emit_json(cli, sim::djpeg_json("fig9", jobs, run)))
    return 1;
  return 0;
}
