// End-to-end properties across the whole stack: the experiment drivers
// produce the shapes the paper reports (in miniature), and the Table II
// machine description is consistent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/batch_runner.h"
#include "sim/machine_config.h"
#include "util/check.h"

namespace sempe::sim {
namespace {

using workloads::Kind;

/// micro.fibonacci at size 60, 4 iterations.
std::string fib60(usize w) {
  return "micro.fibonacci?size=60&width=" + std::to_string(w) +
         "&iters=4&secrets=0";
}

TEST(Experiment, SempeSlowdownTracksPathCount) {
  // Fig. 10a's core shape: SeMPE slowdown ~ W+1.
  for (usize w : {usize{1}, usize{3}}) {
    const auto pt = measure_microbench(fib60(w));
    const double s = pt.sempe_slowdown();
    EXPECT_GT(s, 0.6 * static_cast<double>(w + 1)) << "W=" << w;
    EXPECT_LT(s, 2.0 * static_cast<double>(w + 1)) << "W=" << w;
  }
}

TEST(Experiment, CteSlowerThanSempe) {
  // Fig. 10a: CTE (dashed) above SeMPE (solid) for every workload.
  for (Kind kd : {Kind::kOnes, Kind::kQuicksort, Kind::kQueens}) {
    const auto pt = measure_microbench(microbench_spec(kd, 2, 3));
    EXPECT_GT(pt.cte_cycles, pt.sempe_cycles) << workloads::kind_name(kd);
  }
}

TEST(Experiment, QueensIsCtesWorstCase) {
  const auto fib = measure_microbench(microbench_spec(Kind::kFibonacci, 1, 3));
  const auto queens = measure_microbench(microbench_spec(Kind::kQueens, 1, 3));
  EXPECT_GT(queens.cte_vs_sempe(), fib.cte_vs_sempe());
}

TEST(Experiment, SempeNearIdeal) {
  // Fig. 10b: SeMPE over the combined ideal stays close to 1.
  const auto pt = measure_microbench(fib60(3));
  EXPECT_GT(pt.sempe_vs_ideal_combined(), 0.9);
  EXPECT_LT(pt.sempe_vs_ideal_combined(), 1.8);
}

TEST(Experiment, BaselineCheaperThanEverything) {
  const auto pt = measure_microbench(microbench_spec(Kind::kOnes, 2, 3));
  EXPECT_LT(pt.baseline_cycles, pt.sempe_cycles);
  EXPECT_LT(pt.baseline_cycles, pt.cte_cycles);
  EXPECT_LT(pt.baseline_cycles, pt.ideal_combined_cycles);
}

/// One Fig. 8 cell, measured as a workload-family djpeg spec.
WorkloadPoint djpeg(const char* format, usize pixels) {
  return measure_workload(std::string("djpeg?format=") + format +
                          "&pixels=" + std::to_string(pixels) + "&scale=8");
}

double overhead(const WorkloadPoint& p) { return p.sempe_slowdown() - 1.0; }

TEST(Experiment, DjpegOverheadOrderingMatchesFigure8) {
  // PPM has the largest secure-region share -> largest overhead.
  const usize px = 32 * 1024;
  const auto ppm = djpeg("ppm", px);
  const auto gif = djpeg("gif", px);
  const auto bmp = djpeg("bmp", px);
  for (const auto* p : {&ppm, &gif, &bmp})
    EXPECT_TRUE(p->results_ok) << p->spec << ": " << p->mismatch_summary();
  EXPECT_GT(overhead(ppm), overhead(gif));
  EXPECT_GT(overhead(gif), overhead(bmp));
  EXPECT_LT(overhead(ppm), 1.5);
  EXPECT_GT(overhead(bmp), 0.05);
}

TEST(Experiment, DjpegOverheadStableAcrossImageSizes) {
  const auto small = djpeg("gif", 16 * 1024);
  const auto large = djpeg("gif", 64 * 1024);
  EXPECT_NEAR(overhead(small), overhead(large), 0.10);
}

TEST(MachineConfig, DescribesTable2) {
  const auto cfg = table2_machine();
  const std::string d = describe(cfg);
  EXPECT_NE(d.find("8 instructions / cycle"), std::string::npos);
  EXPECT_NE(d.find("192 uops"), std::string::npos);
  EXPECT_NE(d.find("256 INT, 256 FP"), std::string::npos);
  EXPECT_NE(d.find("32KB"), std::string::npos);
  EXPECT_NE(d.find("64 Bytes/cycle"), std::string::npos);
}

TEST(MachineConfig, Table2Values) {
  const auto cfg = table2_machine();
  EXPECT_EQ(cfg.fetch_width, 8u);
  EXPECT_EQ(cfg.retire_width, 12u);
  EXPECT_EQ(cfg.rob_entries, 192u);
  EXPECT_EQ(cfg.iq_int_entries, 60u);
  EXPECT_EQ(cfg.load_queue, 32u);
  EXPECT_EQ(cfg.memory.il1.size_bytes, 16u * 1024);
  EXPECT_EQ(cfg.memory.dl1.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.memory.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(cfg.spm_bytes_per_cycle, 64u);
}

TEST(EnvKnobs, ParseAndFallback) {
  EXPECT_EQ(env_usize("SEMPE_SURELY_UNSET_VAR", 17), 17u);
}

TEST(EnvKnobs, StrictDecimalOrSimError) {
  const char* const var = "SEMPE_ENV_KNOB_TEST";
  const auto with = [&](const char* value) {
    ::setenv(var, value, 1);
    return env_usize(var, 20);
  };
  // Empty and 0 keep meaning "default" (SEMPE_STAT_SAMPLES defaults to 0).
  EXPECT_EQ(with(""), 20u);
  EXPECT_EQ(with("0"), 20u);
  EXPECT_EQ(with("2"), 2u);
  EXPECT_EQ(with("18446744073709551615"), 18446744073709551615ull);
  // Junk, signs, blanks and overflow throw, naming variable and value.
  for (const char* bad : {"2x", "abc", "-3", "+3", " 3", "18446744073709551616",
                          "99999999999999999999"}) {
    try {
      with(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(var) + "='" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv(var);
}

}  // namespace
}  // namespace sempe::sim
