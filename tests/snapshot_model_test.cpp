// The three register-snapshot mechanisms of Section IV-F are architecturally
// equivalent but differ in SPM traffic — exactly the property these tests
// pin down.
#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe {
namespace {

using cpu::SnapshotModel;
using workloads::BuiltWorkload;
using workloads::Variant;

BuiltWorkload small_bench() {
  return workloads::WorkloadRegistry::instance().build(
      "micro.quicksort?width=2&iters=2&size=12&secrets=10", Variant::kSecure);
}

sim::RunResult run_model(const BuiltWorkload& b, SnapshotModel m) {
  sim::RunConfig rc;
  rc.core.mode = cpu::ExecMode::kSempe;
  rc.core.snapshot_model = m;
  rc.record_observations = false;
  rc.probe_addr = b.results_addr;
  rc.probe_words = b.num_results;
  return sim::run(b.program, rc);
}

class SnapshotModels : public ::testing::TestWithParam<SnapshotModel> {};

TEST_P(SnapshotModels, ArchitecturallyEquivalent) {
  const auto b = small_bench();
  const auto r = run_model(b, GetParam());
  EXPECT_EQ(r.probed, b.expected_results);
}

TEST_P(SnapshotModels, InstructionCountIdentical) {
  const auto b = small_bench();
  const auto r = run_model(b, GetParam());
  const auto ref = run_model(b, SnapshotModel::kArchRS);
  EXPECT_EQ(r.instructions, ref.instructions);
}

INSTANTIATE_TEST_SUITE_P(Models, SnapshotModels,
                         ::testing::Values(SnapshotModel::kArchRS,
                                           SnapshotModel::kPhyRS,
                                           SnapshotModel::kLRS),
                         [](const auto& info) {
                           switch (info.param) {
                             case SnapshotModel::kArchRS: return "ArchRS";
                             case SnapshotModel::kPhyRS: return "PhyRS";
                             case SnapshotModel::kLRS: return "LRS";
                           }
                           return "?";
                         });

TEST(SnapshotTraffic, PhyRsMovesFarMoreBytes) {
  const auto b = small_bench();
  const auto arch = run_model(b, SnapshotModel::kArchRS);
  const auto phy = run_model(b, SnapshotModel::kPhyRS);
  // PhyRS spills the full 512-entry PRF + RAT per event: > 5x ArchRS.
  EXPECT_GT(phy.stats.spm_bytes, 5 * arch.stats.spm_bytes);
  EXPECT_GT(phy.stats.cycles, arch.stats.cycles);
}

TEST(SnapshotTraffic, LrsAvoidsTheEagerSave) {
  const auto b = small_bench();
  const auto arch = run_model(b, SnapshotModel::kArchRS);
  const auto lrs = run_model(b, SnapshotModel::kLRS);
  EXPECT_LT(lrs.stats.spm_bytes, arch.stats.spm_bytes);
}

TEST(SnapshotTraffic, ArchRsTrafficSecretIndependent) {
  // Same program, different secrets: identical SPM byte counts (the
  // constant-time restore property at the traffic level).
  u64 bytes[2];
  int i = 0;
  for (const char* s : {"0", "1"}) {
    const auto b = workloads::WorkloadRegistry::instance().build(
        std::string("micro.fibonacci?width=3&iters=2&size=16&secrets=") + s,
        Variant::kSecure);
    bytes[i++] = run_model(b, SnapshotModel::kArchRS).stats.spm_bytes;
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace sempe
