// Golden-file regression tests for the batch-runner JSON emitters: the
// meta header (schema_version, experiment, workload, modes, threads) is
// pinned byte-for-byte and every point's field set and field order are
// pinned with the (machine-dependent, churn-prone) values blanked out.
// Schema drift — a renamed field, a dropped key, a reordered header —
// fails one of these tests instead of silently breaking downstream
// parsers of the sempe_bench reports' --json (the figures included).
//
// The golden files live in tests/golden/. After an INTENDED schema
// change, regenerate them with:  SEMPE_UPDATE_GOLDEN=1 ./golden_json_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/batch_runner.h"
#include "workloads/scenarios.h"

namespace sempe::sim {
namespace {

/// Sweep options with every orchestration knob off but the worker count.
SweepOptions with_threads(usize n) {
  SweepOptions opt;
  opt.threads = n;
  return opt;
}

/// Blank every value inside the points array (`"key": value` -> `"key": _`)
/// while leaving the meta header verbatim.
std::string normalize_points(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  bool in_points = false;
  while (std::getline(in, line)) {
    if (!in_points) {
      out << line << "\n";
      if (line == "  \"points\": [") in_points = true;
      continue;
    }
    const auto q1 = line.find('"');
    const auto q2 = q1 == std::string::npos
                        ? std::string::npos
                        : line.find("\": ", q1 + 1);
    if (q2 != std::string::npos) {
      const bool comma = !line.empty() && line.back() == ',';
      out << line.substr(0, q2 + 3) << "_" << (comma ? "," : "") << "\n";
    } else {
      out << line << "\n";  // braces / brackets
    }
  }
  return out.str();
}

/// Normalizer for the --metrics-out report: the meta header stays
/// verbatim; every other `"key": value` line keeps the key (the metric
/// namespace IS the schema) and blanks the value. Lines opening nested
/// objects (sections, histograms) pass through, pinning the structure.
std::string normalize_report(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  bool in_meta = false;
  while (std::getline(in, line)) {
    if (line == "  \"meta\": {") in_meta = true;
    else if (in_meta && line == "  },") in_meta = false;
    const auto q1 = line.find('"');
    const auto q2 = q1 == std::string::npos
                        ? std::string::npos
                        : line.find("\": ", q1 + 1);
    const bool opens_object = !line.empty() && line.back() == '{';
    if (!in_meta && q2 != std::string::npos && !opens_object) {
      const bool comma = !line.empty() && line.back() == ',';
      out << line.substr(0, q2 + 3) << "_" << (comma ? "," : "") << "\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

void check_golden(const char* fname, const std::string& normalized) {
  const std::string path = std::string(SEMPE_GOLDEN_DIR) + "/" + fname;
  if (std::getenv("SEMPE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << normalized;
    GTEST_SKIP() << "golden file rewritten: " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with SEMPE_UPDATE_GOLDEN=1)";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), normalized)
      << "JSON schema drift against " << fname
      << ". If the change is intended, regenerate the golden files with "
         "SEMPE_UPDATE_GOLDEN=1 and update downstream parsers.";
}

TEST(GoldenJson, BenchSyntheticSchemaIsPinned) {
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = workload_grid(specs, MicrobenchOptions{});
  const auto points = run_workload_sweep(jobs, with_threads(1)).points;
  const std::string json = workload_json("synthetic", jobs, points);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  check_golden("bench_synthetic.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchLeakageSchemaIsPinned) {
  security::AuditOptions opt;
  opt.samples = 2;
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = leakage_grid(specs, opt);
  const auto points = run_leakage_sweep(jobs, with_threads(1)).points;
  const std::string json = leakage_json("leakage", jobs, points);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  check_golden("bench_leakage.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchLintSchemaIsPinned) {
  security::AuditOptions opt;
  opt.samples = 2;
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = lint_grid(specs, opt);
  const auto run = run_lint_sweep(jobs, with_threads(1));
  const std::string json = lint_json("lint", jobs, run);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  for (const auto& pt : run.points)
    EXPECT_TRUE(pt.ok()) << pt.lint.spec << ": " << pt.failure_summary();
  check_golden("bench_lint.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchTenantsSchemaIsPinned) {
  security::AuditOptions opt;
  opt.samples = 2;
  const std::vector<std::string> specs = {
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8&iters=2",
  };
  const auto jobs = leakage_grid(specs, opt);
  const std::string json =
      tenant_json("tenants", jobs, run_leakage_sweep(jobs, with_threads(1)));
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  // The acceptance-gate flags CI greps for are part of the pinned schema.
  EXPECT_NE(json.find("\"legacy_recovery_above_chance\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"sempe_at_chance\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cte_at_chance\": 1"), std::string::npos);
  check_golden("bench_tenants.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchScenariosByteIdenticalAcrossThreadsAndPinned) {
  // The exact sweep `sempe_bench scenarios` fans out
  // (workloads/scenarios.h), so the golden file covers the real sweep and
  // the --threads byte-identity guarantee is asserted here, not just in CI.
  const auto jobs =
      workload_grid(workloads::scenario_sweep_specs(1), MicrobenchOptions{});
  const auto pts1 = run_workload_sweep(jobs, with_threads(1)).points;
  const auto pts4 = run_workload_sweep(jobs, with_threads(4)).points;
  const std::string j1 = workload_json("scenarios", jobs, pts1);
  const std::string j4 = workload_json("scenarios", jobs, pts4);
  EXPECT_EQ(j1, j4);  // byte-identical across --threads values
  EXPECT_NE(j1.find("\"experiment\": \"scenarios\""), std::string::npos);
  EXPECT_NE(
      j1.find("\"workload\": \"crypto.aes,crypto.modexp,ds.hash_probe\""),
      std::string::npos);
  for (const auto& pt : pts1) EXPECT_TRUE(pt.results_ok) << pt.spec;
  check_golden("bench_scenarios.json.golden", normalize_points(j1));
}

TEST(GoldenJson, MicrobenchSchemaIsPinned) {
  // The document the fig10a/fig10b/table1/table2/ablation reports emit.
  const auto jobs = microbench_grid(all_kinds(), {1, 2}, 2, {});
  const std::string json = microbench_json(
      "fig10a", jobs, run_microbench_sweep(jobs, with_threads(2)));
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  check_golden("bench_microbench.json.golden", normalize_points(json));
}

TEST(GoldenJson, DjpegSchemaIsPinned) {
  // The document the fig8/fig9 reports emit.
  const auto jobs = djpeg_grid({workloads::OutputFormat::kPpm,
                                workloads::OutputFormat::kGif,
                                workloads::OutputFormat::kBmp},
                               {16 * 1024}, 64);
  const std::string json =
      djpeg_json("fig8", jobs, run_workload_sweep(jobs, with_threads(2)));
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  check_golden("bench_djpeg.json.golden", normalize_points(json));
}

TEST(GoldenJson, MetricsReportSchemaIsPinned) {
  // The --metrics-out document (src/obs/report.h): metric names and
  // section structure are the schema; values — and the whole host-timing
  // section, which strip_report_timing removes — are not.
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = workload_grid(specs, MicrobenchOptions{});
  obs::Session::Options opt;
  opt.metrics = true;
  obs::Session session(opt);
  {
    const obs::ScopedSession scope(&session);
    run_workload_sweep(jobs, with_threads(2));
  }
  const std::string report = obs::render_report("golden", session);
  EXPECT_NE(report.find("\"schema_version\": 1"), std::string::npos);
  const std::string stripped = obs::strip_report_timing(report);
  EXPECT_EQ(stripped.find("\"timing\""), std::string::npos);
  check_golden("metrics_report.json.golden", normalize_report(stripped));
}

}  // namespace
}  // namespace sempe::sim
