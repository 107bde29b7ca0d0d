#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/batch_runner.h"
#include "util/check.h"

namespace sempe {
namespace {

using sim::BatchCli;
using sim::MicrobenchJob;
using sim::MicrobenchPoint;
using workloads::Kind;

/// Sweep options with every orchestration knob off but the worker count.
sim::SweepOptions with_threads(usize n) {
  sim::SweepOptions opt;
  opt.threads = n;
  return opt;
}

TEST(RunIndexed, ResultsComeBackInIndexOrder) {
  for (const usize threads : {usize{1}, usize{2}, usize{8}}) {
    const auto r =
        sim::run_indexed(100, threads, [](usize i) { return i * i; });
    ASSERT_EQ(r.size(), 100u);
    for (usize i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], i * i);
  }
}

TEST(RunIndexed, HandlesEmptyAndOversubscribedPools) {
  EXPECT_TRUE(sim::run_indexed(0, 8, [](usize i) { return i; }).empty());
  const auto r = sim::run_indexed(3, 64, [](usize i) { return i + 1; });
  EXPECT_EQ(r, (std::vector<usize>{1, 2, 3}));
}

TEST(RunIndexed, RethrowsJobExceptions) {
  const auto boom = [](usize i) -> usize {
    SEMPE_CHECK_MSG(i != 3, "job " << i);
    return i;
  };
  EXPECT_THROW(sim::run_indexed(8, 4, boom), SimError);
  EXPECT_THROW(sim::run_indexed(8, 1, boom), SimError);
}

TEST(ResolveThreads, ClampsToJobsAndNeverReturnsZero) {
  EXPECT_EQ(sim::resolve_threads(4, 10), 4u);
  EXPECT_EQ(sim::resolve_threads(16, 3), 3u);
  EXPECT_GE(sim::resolve_threads(0, 100), 1u);
}

std::vector<char*> make_argv(std::vector<std::string>& store) {
  std::vector<char*> argv;
  argv.reserve(store.size());
  for (std::string& s : store) argv.push_back(s.data());
  return argv;
}

TEST(BatchCli, StripsOwnFlagsAndKeepsTheRest) {
  std::vector<std::string> store = {"bench", "--threads=6", "keepme",
                                    "--json=out.json", "--help"};
  std::vector<char*> argv = make_argv(store);
  int argc = static_cast<int>(argv.size());
  const BatchCli cli = sim::parse_batch_cli(argc, argv.data());
  EXPECT_TRUE(cli.ok);
  EXPECT_EQ(cli.threads, 6u);
  EXPECT_TRUE(cli.want_json);
  EXPECT_EQ(cli.json_path, "out.json");
  EXPECT_TRUE(cli.help);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "keepme");
}

TEST(BatchCli, BareJsonMeansStdout) {
  std::vector<std::string> store = {"bench", "--json"};
  std::vector<char*> argv = make_argv(store);
  int argc = static_cast<int>(argv.size());
  const BatchCli cli = sim::parse_batch_cli(argc, argv.data());
  EXPECT_TRUE(cli.want_json);
  EXPECT_TRUE(cli.json_path.empty());
  EXPECT_EQ(argc, 1);
}

// Fast sweep used by the determinism checks.
std::vector<MicrobenchJob> small_grid() {
  return sim::microbench_grid({Kind::kOnes, Kind::kFibonacci}, {1, 2}, 4, {});
}

TEST(BatchRunner, JsonIsByteIdenticalAcrossThreadCounts) {
  const auto jobs = small_grid();
  const auto r1 = sim::run_microbench_sweep(jobs, with_threads(1));
  const std::string j1 = sim::microbench_json("determinism", jobs, r1);
  const std::string j2 = sim::microbench_json(
      "determinism", jobs, sim::run_microbench_sweep(jobs, with_threads(2)));
  const std::string j8 = sim::microbench_json(
      "determinism", jobs, sim::run_microbench_sweep(jobs, with_threads(8)));
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
  // Sanity: results are real, not all-zero placeholders.
  for (const MicrobenchPoint& p : r1.points) {
    EXPECT_GT(p.baseline_cycles, 0u);
    EXPECT_GT(p.sempe_cycles, 0u);
  }
}

TEST(BatchRunner, JsonOpensWithMetadataHeader) {
  const auto jobs = small_grid();
  const std::string j = sim::microbench_json(
      "header", jobs, sim::run_microbench_sweep(jobs, with_threads(2)));
  // The meta object precedes the points array and carries the schema
  // version, experiment name, workload description, and mode list. The
  // threads field is the constant 0 (thread-count invariant) — a real
  // worker count here would defeat the byte-identity guarantee.
  const auto meta_at = j.find("\"meta\": {");
  const auto points_at = j.find("\"points\": [");
  ASSERT_NE(meta_at, std::string::npos);
  ASSERT_NE(points_at, std::string::npos);
  EXPECT_LT(meta_at, points_at);
  EXPECT_NE(j.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"experiment\": \"header\""), std::string::npos);
  EXPECT_NE(j.find("\"workload\": \"microbench\""), std::string::npos);
  EXPECT_NE(j.find("\"modes\": \"legacy,sempe,cte,ideal\""),
            std::string::npos);
  EXPECT_NE(j.find("\"threads\": 0"), std::string::npos);
}

TEST(BatchRunner, WorkloadJsonByteIdenticalAcrossThreadCountsInclHeader) {
  sim::MicrobenchOptions opt;
  const auto jobs = sim::workload_grid(
      {"synthetic.stream?size=24&iters=2",
       "synthetic.ilp?size=6&chains=2&depth=3&iters=2&width=2",
       "micro.ones?size=8&iters=2"},
      opt);
  const auto p1 = sim::run_workload_sweep(jobs, with_threads(1)).points;
  const auto p4 = sim::run_workload_sweep(jobs, with_threads(4)).points;
  const std::string j1 = sim::workload_json("determinism", jobs, p1);
  const std::string j4 = sim::workload_json("determinism", jobs, p4);
  EXPECT_EQ(j1, j4);
  // Header names the distinct generators of the sweep.
  EXPECT_NE(
      j1.find("\"workload\": \"synthetic.stream,synthetic.ilp,micro.ones\""),
      std::string::npos);
  for (const sim::WorkloadPoint& p : p1) {
    EXPECT_TRUE(p.results_ok) << p.spec;
    EXPECT_GT(p.baseline_cycles, 0u);
    EXPECT_GT(p.sempe_cycles, 0u);
    EXPECT_GT(p.cte_cycles, 0u);
  }
}

TEST(BatchRunner, IdealsAreTheirDefiningWorkloadRuns) {
  // The two ideal definitions of sim/experiment.h, pinned against
  // measure_workload: combined = the baseline of the same spec with every
  // secret true; standalone = (W+1) x the baseline of the width-0 spec.
  const usize w = 3;
  const MicrobenchPoint pt =
      sim::measure_microbench(sim::microbench_spec(Kind::kOnes, w, 4));
  const auto baseline = [](const char* spec) {
    return sim::measure_workload(spec).baseline_cycles;
  };
  EXPECT_EQ(pt.ideal_combined_cycles,
            baseline("micro.ones?width=3&iters=4&secrets=1"));
  const Cycle t1 = baseline("micro.ones?width=0&iters=4");
  EXPECT_GT(t1, 0u);
  EXPECT_EQ(pt.ideal_standalone_cycles, (w + 1) * t1);
  // The point itself is the workload measurement of its own spec.
  const auto plain = sim::measure_workload(pt.spec);
  EXPECT_TRUE(pt.results_ok) << pt.mismatch_summary();
  EXPECT_EQ(pt.baseline_cycles, plain.baseline_cycles);
  EXPECT_EQ(pt.sempe_cycles, plain.sempe_cycles);
  EXPECT_EQ(pt.cte_cycles, plain.cte_cycles);
  EXPECT_EQ(pt.kind(), "ones");
  EXPECT_EQ(pt.width(), w);
}

}  // namespace
}  // namespace sempe
