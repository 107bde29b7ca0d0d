// The microbenchmark of Figure 7: I iterations of W nested secret-dependent
// conditionals, each guarding one workload kernel, with workload W+1
// executing unconditionally after the nest.
//
//   for (i = 0; i < I; i++) {
//     if (s1) { workload1;
//       if (s2) { workload2;
//         ... if (sW) { workloadW } ... } }
//     workload_{W+1};
//   }
//
// Two build variants (see workloads/harness.h, which owns the nest):
//   kSecure — sJMP-annotated, shadow-memory privatized, CMOV merge phase.
//   kCte    — the FaCT-style constant-time version. Note this is an
//             *optimistic* CTE transform (linear guard chain rather than
//             the canonical expansion of Fig. 2b), so CTE costs measured
//             here are a lower bound — comparisons favor CTE.
//
// width = 0 builds the degenerate loop with only workload W+1, used for
// computing the ideal (sum-of-paths) reference.
//
// The one build path is the registry's `micro.<kind>?size=N&width=W&...`
// generator: build_harness over microbench_kernel_spec below.
#pragma once

#include "workloads/harness.h"
#include "workloads/kernels.h"

namespace sempe::workloads {

/// The harness-facing form of one microbenchmark kernel; the registry's
/// micro.<kind> generators wrap it in build_harness.
KernelSpec microbench_kernel_spec(Kind kind, usize size, u64 input_seed);

}  // namespace sempe::workloads
