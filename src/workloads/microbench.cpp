#include "workloads/microbench.h"

namespace sempe::workloads {

KernelSpec microbench_kernel_spec(Kind kind, usize size, u64 input_seed) {
  KernelSpec s;
  s.name = std::string("micro.") + kind_name(kind);
  s.size = size;
  s.input = make_input(kind, size, input_seed);
  s.buf_words = kernel_buf_words(kind, size);
  s.aux_words = kernel_aux_words(kind, size);
  s.expected = expected_checksum(kind, size, s.input);
  s.emit = [kind](isa::ProgramBuilder& pb, const KernelParams& p) {
    emit_kernel(pb, kind, p);
  };
  s.emit_cte = [kind](isa::ProgramBuilder& pb, const KernelParams& p) {
    emit_kernel_cte(pb, kind, p);
  };
  return s;
}

}  // namespace sempe::workloads
