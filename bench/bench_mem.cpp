// Memory-subsystem wins on the Tbl. 2 layers: hugepages + workspace pool.
//
//   $ ./bench_mem [--full] [--json out.json]
//
// Each layer runs the SAME convolution under two allocator configurations:
//
//   baseline   ONDWIN_NO_HUGEPAGES=1, pooled_workspace=false,
//              numa_first_touch=false — every workspace is a fresh
//              aligned_alloc'd buffer on 4 KiB pages (the pre-mem code)
//   mem        defaults plus ONDWIN_HUGETLB=1 — pooled slabs from
//              WorkspacePool::global(), hugepage arenas (the explicit
//              MAP_HUGETLB reserve when the host has one, else
//              MADV_HUGEPAGE, else plain pages — the arena's normal
//              fallback chain), schedule-aware first-touch
//
// and reports, per configuration:
//
//   cons ms     first plan construction (slab allocation + first-touch)
//   recon ms    reconstructing the plan after destroying it — the
//               tuner/plan-rebuild pattern; the pool turns this into a
//               free-list hit
//   reconPF     page faults during that reconstruction (pool hit => ~0)
//   exec ms     best-of-N execute_pretransformed wall time
//   dTLB/ex     hardware dTLB load misses per execution (perf_event) —
//               the hugepage win: 2 MiB pages cut workspace TLB entries
//               by 512x
//   huge%       fraction of the plan's workspace slabs the kernel
//               actually backs with huge pages (/proc/self/smaps; THP is
//               advisory, so this is measured, not assumed)
//
// Expect the mem config's FIRST construction to be slower when a hugetlb
// reserve exists: faulting explicit 2 MiB pages is expensive up front.
// That cost is paid once per size class — the reconstruction row shows
// the pool handing the already-faulted, already-promoted slab back.
//
// The two configurations' outputs are cross-checked bitwise before any
// timing (the allocator must be invisible to the numerics).
//
// perf_event and THP are both frequently unavailable in containers; rows
// degrade to wall-clock + coverage-only and say so.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "ondwin/ondwin.h"
#include "report.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;

namespace {

struct ConfigResult {
  double construct_secs = 0;
  double reconstruct_secs = 0;
  double best_exec_secs = 0;
  double first_touch_secs = 0;
  u64 construct_faults = 0;
  u64 reconstruct_faults = 0;
  double dtlb_per_exec = 0;
  double faults_per_exec = 0;
  bool perf_valid = false;
  i64 workspace_bytes = 0;
  std::size_t slab_bytes = 0;
  std::size_t hugepage_bytes = 0;
  u64 pool_hits = 0;  // global-pool hits this phase (mem config only)
};

// Runs one allocator configuration on one layer. `out` receives the conv
// result so the caller can cross-check the two configs bitwise.
ConfigResult run_config(const ConvProblem& p, const PlanOptions& po,
                        const float* kernels, const float* in, float* out,
                        obs::PerfCounterSet& perf) {
  ConfigResult r;
  const mem::WorkspacePool::Stats pool0 = mem::WorkspacePool::global().stats();

  // First construction: slab allocation + (mem config) first-touch.
  const obs::PerfReading c0 = perf.read();
  {
    Timer t;
    ConvPlan warm(p, po);
    r.construct_secs = t.seconds();
    r.first_touch_secs = warm.first_touch_seconds();
  }  // destroyed: pooled slabs go back to the free lists

  // Reconstruction after teardown — the tuner / plan-rebuild pattern.
  // With the pool this is a size-class hit: no mmap, no page faults.
  const obs::PerfReading c1 = perf.read();
  Timer rt;
  ConvPlan plan(p, po);
  r.reconstruct_secs = rt.seconds();
  const obs::PerfReading c2 = perf.read();
  r.construct_faults = c1.since(c0).page_faults;
  r.reconstruct_faults = c2.since(c1).page_faults;

  plan.set_kernels(kernels);
  plan.execute_pretransformed(in, out);  // warm-up + output for the check
  Timer est;
  plan.execute_pretransformed(in, out);
  const double once = est.seconds();
  const int iters =
      std::max(3, static_cast<int>(std::ceil(0.15 / std::max(once, 1e-6))));

  const obs::PerfReading e0 = perf.read();
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    Timer t;
    plan.execute_pretransformed(in, out);
    best = std::min(best, t.seconds());
  }
  const obs::PerfReading exec = perf.read().since(e0);
  r.best_exec_secs = best;
  r.perf_valid = exec.valid;
  if (exec.valid) {
    r.dtlb_per_exec = static_cast<double>(exec.dtlb_misses) / iters;
    r.faults_per_exec = static_cast<double>(exec.page_faults) / iters;
  }
  r.workspace_bytes = plan.workspace_bytes();
  r.slab_bytes = plan.workspace_slab_bytes();
  r.hugepage_bytes = plan.workspace_hugepage_bytes();
  r.pool_hits = mem::WorkspacePool::global().stats().hits - pool0.hits;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }
  const std::string json_path = bench::json_flag(argc, argv);

  // Open the counters before any plan exists: inherit=1 only covers
  // threads spawned after the open, and plans spawn pools at construction.
  obs::PerfCounterSet perf;
  perf.start();
  if (!perf.available()) {
    std::printf("(perf counters unavailable: %s)\n",
                perf.unavailable_reason().c_str());
  }

  const auto layers = table2_layers(full);
  bench::BenchReport report("mem");
  Rng rng(2026);

  std::printf("== workspace pool + hugepages vs baseline (%s sizes) ==\n",
              full ? "paper" : "CI");
  std::printf("%-10s %-5s %-9s %8s %9s %8s %9s %12s %6s\n", "net", "layer",
              "config", "cons ms", "recon ms", "reconPF", "exec ms",
              "dTLB/ex", "huge%");

  double log_dtlb_sum = 0, log_recon_sum = 0;
  int dtlb_count = 0, recon_count = 0;

  for (const auto& L : layers) {
    const ConvShape& s = L.shape;
    ConvProblem p;
    p.shape = s;
    p.tile_m = Dims::filled(s.image.rank(), 4);

    const ImageLayout in_l{s.batch, s.in_channels, s.image};
    const ImageLayout out_l{s.batch, s.out_channels, s.output()};
    const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
    AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
    AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
    AlignedBuffer<float> out_base(
        static_cast<std::size_t>(out_l.total_floats()));
    AlignedBuffer<float> out_mem(out_base.size());
    for (auto& v : in_b) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : w_b) v = rng.gaussian(0.0f, 0.05f);

    // Baseline first, with hugepages forced off for the whole phase
    // (hugepages_enabled() is read per allocation, so flipping the env
    // between phases of one process is supported). pooled=false keeps the
    // baseline out of the global pool entirely.
    setenv("ONDWIN_NO_HUGEPAGES", "1", 1);
    PlanOptions base_po;
    base_po.pooled_workspace = false;
    base_po.numa_first_touch = false;
    const ConfigResult rb = run_config(p, base_po, w_b.data(), in_b.data(),
                                       out_base.data(), perf);

    // Mem phase: arena defaults plus an opt-in to the explicit hugetlb
    // reserve. Hosts without one (HugePages_Total=0) fall back to THP
    // mmap transparently; hosts where THP never promotes (common in
    // microVM guests) at least show honest 0% coverage.
    unsetenv("ONDWIN_NO_HUGEPAGES");
    setenv("ONDWIN_HUGETLB", "1", 1);
    const PlanOptions mem_po;  // pooled + first-touch are the defaults
    const ConfigResult rm = run_config(p, mem_po, w_b.data(), in_b.data(),
                                       out_mem.data(), perf);
    unsetenv("ONDWIN_HUGETLB");

    if (std::memcmp(out_base.data(), out_mem.data(),
                    out_base.size() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "FATAL: pooled+hugepage output diverges from baseline on "
                   "%s %s\n",
                   L.net.c_str(), L.name.c_str());
      return 1;
    }

    auto emit = [&](const char* config, const ConfigResult& r) {
      // Coverage over the slabs actually mapped (size-class + hugepage
      // rounding), not the logical workspace ask — keeps the ratio <= 1.
      const double huge_pct =
          r.slab_bytes > 0 ? 100.0 * static_cast<double>(r.hugepage_bytes) /
                                 static_cast<double>(r.slab_bytes)
                           : 0.0;
      std::printf("%-10s %-5s %-9s %8.2f %9.3f %8llu %9.2f %12.3e %5.1f%%\n",
                  L.net.c_str(), L.name.c_str(), config,
                  r.construct_secs * 1e3, r.reconstruct_secs * 1e3,
                  static_cast<unsigned long long>(r.reconstruct_faults),
                  r.best_exec_secs * 1e3, r.dtlb_per_exec, huge_pct);
      bench::BenchReport::Row& row =
          report.row()
              .set("net", L.net)
              .set("layer", L.name)
              .set("config", config)
              .set("construct_ms", r.construct_secs * 1e3)
              .set("reconstruct_ms", r.reconstruct_secs * 1e3)
              .set("exec_ms", r.best_exec_secs * 1e3)
              .set("workspace_bytes", static_cast<double>(r.workspace_bytes))
              .set("slab_bytes", static_cast<double>(r.slab_bytes))
              .set("hugepage_bytes", static_cast<double>(r.hugepage_bytes))
              .set("hugepage_pct", huge_pct)
              .set("first_touch_ms", r.first_touch_secs * 1e3)
              .set("pool_hits", static_cast<double>(r.pool_hits));
      if (r.perf_valid) {
        row.set("construct_page_faults",
                static_cast<double>(r.construct_faults))
            .set("reconstruct_page_faults",
                 static_cast<double>(r.reconstruct_faults))
            .set("dtlb_miss_per_exec", r.dtlb_per_exec)
            .set("page_faults_per_exec", r.faults_per_exec);
      }
    };
    emit("baseline", rb);
    emit("mem", rm);

    if (rb.perf_valid && rm.perf_valid && rm.dtlb_per_exec > 0 &&
        rb.dtlb_per_exec > 0) {
      const double dtlb_ratio = rb.dtlb_per_exec / rm.dtlb_per_exec;
      log_dtlb_sum += std::log(dtlb_ratio);
      ++dtlb_count;
      std::printf("%27s dTLB-miss x%.2f lower, recon faults %llu -> %llu, "
                  "pool hits +%llu\n",
                  "", dtlb_ratio,
                  static_cast<unsigned long long>(rb.reconstruct_faults),
                  static_cast<unsigned long long>(rm.reconstruct_faults),
                  static_cast<unsigned long long>(rm.pool_hits));
    }
    if (rb.reconstruct_secs > 0 && rm.reconstruct_secs > 0) {
      log_recon_sum += std::log(rb.reconstruct_secs / rm.reconstruct_secs);
      ++recon_count;
    }
  }

  if (dtlb_count > 0) {
    std::printf("\ngeomean dTLB-miss reduction: x%.2f over %d layers\n",
                std::exp(log_dtlb_sum / dtlb_count), dtlb_count);
  }
  if (recon_count > 0) {
    std::printf("geomean plan-reconstruction speedup: x%.2f\n",
                std::exp(log_recon_sum / recon_count));
  }
  const mem::WorkspacePool::Stats ps = mem::WorkspacePool::global().stats();
  std::printf("global pool: %llu hits / %llu misses (%.1f%% hit rate), "
              "%.1f MB idle\n",
              static_cast<unsigned long long>(ps.hits),
              static_cast<unsigned long long>(ps.misses),
              100.0 * ps.hit_rate(),
              static_cast<double>(ps.bytes_idle) / (1 << 20));
  report.row()
      .set("net", "_summary")
      .set("layer", "-")
      .set("config", "-")
      .set("geomean_dtlb_reduction",
           dtlb_count > 0 ? std::exp(log_dtlb_sum / dtlb_count) : 0.0)
      .set("geomean_reconstruct_speedup",
           recon_count > 0 ? std::exp(log_recon_sum / recon_count) : 0.0)
      .set("perf_layers", static_cast<double>(dtlb_count))
      .set("pool_hit_rate", ps.hit_rate())
      .set("pool_hits", static_cast<double>(ps.hits))
      .set("pool_misses", static_cast<double>(ps.misses));

  if (!json_path.empty()) {
    if (report.write_json(json_path)) {
      std::printf("wrote %zu rows to %s\n", report.size(),
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
