// Figure 8 — execution time overhead for libjpeg(-like) decompression with
// different image output formats, varying input size.
//
// Paper shape: overheads between ~31% and ~87%; PPM > GIF > BMP; nearly
// flat across image sizes (256k..2048k pixels).
//
// SEMPE_DJPEG_SCALE divides the pixel counts for simulation time
// (default 8; set 1 for paper-sized images). The 12 (format, size) cells
// run concurrently as workload-family sweeps (sim/batch_runner.h).
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  using workloads::OutputFormat;
  const sim::BatchCli cli = sim::parse_batch_cli(argc, argv);
  int exit_code = 0;
  if (sim::batch_cli_should_exit(cli, argc, argv,
                                 "Figure 8: djpeg overhead by format/size",
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
      "Fig8  %-4s %5zuk  overhead = %5.1f%%\n",
                workloads::format_name(cell.format), cell.pixels / 1024,
                (pt.sempe_slowdown() - 1.0) * 100.0);
  }
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), secs,
               sim::resolve_threads(cli.threads, run.points.size()));

  if (!sim::finish_obs_session(cli, "fig8", std::move(obs_session)))
    return 1;

  if (cli.want_json &&
      !sim::emit_json(cli, sim::djpeg_json("fig8", jobs, run)))
    return 1;
  return 0;
}
