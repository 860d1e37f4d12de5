#include "core/plan_options.h"

namespace ondwin {

std::string plan_options_fingerprint(const PlanOptions& o) {
  // The precision token keeps an fp32 and a bf16 plan of one shape
  // distinct — they compile different microkernels and size their
  // workspaces differently, so sharing would be a correctness bug.
  return str_cat("t", o.threads, "_j", o.use_jit ? 1 : 0,
                 o.jit_transforms ? 1 : 0, o.streaming_stores ? 1 : 0,
                 o.scatter_in_gemm ? 1 : 0, o.codelet_pairing ? 1 : 0, "_n",
                 o.n_blk, "_c", o.c_blk, "_cp", o.cp_blk, "_f",
                 static_cast<int>(o.fusion), o.fuse_blk, "_m",
                 o.pooled_workspace ? 1 : 0, o.numa_first_touch ? 1 : 0,
                 "_pr", precision_name(o.precision), "|", o.wisdom_path);
}

}  // namespace ondwin
