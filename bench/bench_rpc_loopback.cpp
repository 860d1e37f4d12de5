// Network-serving loopback benchmark: this driver process plus one forked
// backend PROCESS over a unix socket, on the same machine, against the
// in-proc batched serving rate as the baseline.
//
// Three phases:
//   1. in_proc     — closed-loop batched serving inside this process
//                    (the bench_serve_throughput steady-state regime).
//   2. rpc_loopback— the same closed loop, but every request crosses a
//                    unix socket into the backend process through one
//                    pipelined RpcClient connection. The target is >= 0.8x
//                    of phase 1: framing, epoll and the process hop must
//                    stay small against the conv work.
//   3. rpc_overload— open-loop at ~2x the measured loopback capacity with
//                    a per-request deadline equal to the backend's SLO.
//                    Admission control must shed EARLY (reject at accept
//                    time, microseconds) so that the requests it does
//                    admit still meet the SLO: the report records the
//                    shed rate and the admitted p99 against the SLO.
//
// Backend mode (`--backend <socket>`) serves one model until stdin hits
// EOF — the driver owns the pipe, so the backend dies with the driver.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ondwin/ondwin.h"
#include "report.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;

namespace {

constexpr int kMaxBatch = 8;
constexpr double kSloMs = 100.0;

ConvProblem serving_problem() {
  // Same shape as bench_serve_throughput: one F(4x4) tile per sample,
  // C = C' = 256 so the batched GEMM dominates and batching matters.
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 256;
  p.shape.out_channels = 256;
  p.shape.image = {4, 4};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};
  return p;
}

void fill_random(AlignedBuffer<float>& buf, std::size_t floats, u64 seed) {
  buf.reset(floats);
  Rng rng(seed);
  for (std::size_t i = 0; i < floats; ++i) {
    buf.data()[i] = rng.uniform(-0.5f, 0.5f);
  }
}

serve::ModelConfig model_config() {
  serve::ModelConfig config;
  config.batching.max_batch = kMaxBatch;
  config.batching.max_delay_ms = 2.0;
  config.plan.threads = 1;
  return config;
}

/// Backend process: serve "conv" on `path` until stdin reaches EOF.
int run_backend(const std::string& path, int index) {
  // Distinct process name per backend so a merged trace renders one
  // labelled track group per process (the fork parent already rewrote
  // ONDWIN_TRACE to a per-backend dump path).
  obs::Tracer::instance().set_process_name("backend" + std::to_string(index));
  const ConvProblem p = serving_problem();
  AlignedBuffer<float> weights;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);

  serve::InferenceServer server;
  server.register_conv("conv", p, weights.data(), model_config());

  rpc::RpcServerOptions options;
  options.unix_path = path;
  options.admission.slo_ms = kSloMs;
  rpc::RpcServer rpc(server, options);
  rpc.start();

  char buf[64];
  while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
  rpc.stop();
  server.stop();
  return 0;
}

struct BackendProc {
  pid_t pid = -1;
  int stdin_fd = -1;  // closing this tells the backend to exit
  std::string path;
};

BackendProc spawn_backend(const char* self, const std::string& path,
                          int index) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::dup2(pipe_fds[0], STDIN_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    // Propagate tracing into the backend with a per-process dump path
    // (every process atexit-dumping to the SAME file would clobber each
    // other): trace.json -> trace.backend0.json etc. The per-process
    // files merge with tools/trace_merge.
    if (const char* trace = std::getenv("ONDWIN_TRACE");
        trace != nullptr && trace[0] != '\0') {
      std::string dump = trace;
      const std::string suffix = ".json";
      if (dump.size() > suffix.size() &&
          dump.compare(dump.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        dump.resize(dump.size() - suffix.size());
      }
      dump += ".backend" + std::to_string(index) + ".json";
      ::setenv("ONDWIN_TRACE", dump.c_str(), 1);
    }
    const std::string index_str = std::to_string(index);
    ::execl(self, self, "--backend", path.c_str(), "--index",
            index_str.c_str(), static_cast<char*>(nullptr));
    std::perror("execl");
    std::_Exit(127);
  }
  ::close(pipe_fds[0]);
  BackendProc b;
  b.pid = pid;
  b.stdin_fd = pipe_fds[1];
  b.path = path;
  return b;
}

void wait_ready(const std::string& path) {
  rpc::RpcClientOptions co;
  co.unix_path = path;
  for (int attempt = 0; attempt < 200; ++attempt) {
    rpc::RpcClient probe(co);
    if (probe.ping()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  std::fprintf(stderr, "backend on %s never became ready\n", path.c_str());
  std::exit(1);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend_path;
  int backend_index = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") == 0) {
      backend_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--index") == 0) {
      backend_index = std::atoi(argv[i + 1]);
    }
  }
  if (!backend_path.empty()) return run_backend(backend_path, backend_index);
  obs::Tracer::instance().set_process_name("driver");
  const std::string json_path = ondwin::bench::json_flag(argc, argv);

  const ConvProblem p = serving_problem();
  const std::size_t sin =
      static_cast<std::size_t>(p.input_layout().total_floats());
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input, sin, 2);

  // Spawn the backend FIRST (fork before this process has served
  // anything); it idles in epoll_wait during phase 1.
  const std::string sock =
      "/tmp/ondwin_bench_rpc_" + std::to_string(::getpid()) + "_0.sock";
  BackendProc backend = spawn_backend(argv[0], sock, 0);
  wait_ready(backend.path);

  constexpr int kRequests = 2048;
  constexpr int kWindow = 8 * kMaxBatch;

  // --- phase 1: in-proc batched serving, closed loop --------------------
  double in_proc_rps = 0;
  {
    serve::InferenceServer server;
    server.register_conv("conv", p, weights.data(), model_config());
    {
      std::vector<serve::ResultFuture> warm;
      for (int r = 0; r < 2 * kMaxBatch; ++r) {
        warm.push_back(server.submit("conv", input.data()));
      }
      for (auto& f : warm) f.get();
    }
    std::vector<serve::ResultFuture> window;
    window.reserve(kWindow);
    Timer timer;
    for (int r = 0; r < kRequests; ++r) {
      if (static_cast<int>(window.size()) == kWindow) {
        window.front().get();
        window.erase(window.begin());
      }
      window.push_back(server.submit("conv", input.data()));
    }
    for (auto& f : window) f.get();
    in_proc_rps = kRequests / timer.seconds();
    server.stop();
  }

  // --- phase 2: one backend process, closed loop -----------------------
  double rpc_rps = 0;
  {
    rpc::RpcClientOptions co;
    co.unix_path = backend.path;
    co.connections = 1;
    rpc::RpcClient client(co);
    // Same windowed closed loop as phase 1: keep kWindow requests in
    // flight through the client's pipelined submit() so the backend sees
    // full batches. (Blocking one-thread-per-request drivers cap
    // occupancy at the thread count and under-batch the conv.)
    {  // warm the backend's plan off the clock
      std::vector<std::future<rpc::RpcResponse>> warm;
      for (int r = 0; r < 2 * kMaxBatch; ++r) {
        warm.push_back(client.submit("conv", input.data(), sin));
      }
      for (auto& f : warm) f.get();
    }
    int failures = 0;
    std::vector<std::future<rpc::RpcResponse>> window;
    window.reserve(static_cast<std::size_t>(kWindow));
    Timer timer;
    for (int r = 0; r < kRequests; ++r) {
      if (static_cast<int>(window.size()) == kWindow) {
        if (!window.front().get().ok()) ++failures;
        window.erase(window.begin());
      }
      window.push_back(client.submit("conv", input.data(), sin));
    }
    for (auto& f : window) {
      if (!f.get().ok()) ++failures;
    }
    rpc_rps = kRequests / timer.seconds();
    if (failures > 0) {
      std::fprintf(stderr, "loopback phase saw %d failures\n", failures);
    }
  }
  const double ratio = rpc_rps / in_proc_rps;

  // --- phase 3: 2x overload, deadline = SLO, measure shedding -----------
  // Open loop: pace submissions at ~2x the measured loopback capacity
  // (futures pile up; admission sheds).
  double shed_rate = 0, admitted_p99_ms = 0, admitted_queue_p99_ms = 0;
  u64 overload_total = 0, overload_shed = 0, overload_ok = 0,
      overload_other = 0;
  double offered_rps = 0;
  {
    rpc::RpcClientOptions co;
    co.unix_path = backend.path;
    co.connections = 2;
    rpc::RpcClient client(co);
    offered_rps = 2.0 * rpc_rps;
    const auto interval = std::chrono::nanoseconds(
        static_cast<long long>(1e9 / offered_rps));
    const auto t0 = std::chrono::steady_clock::now();
    const auto t_end = t0 + std::chrono::seconds(3);
    std::vector<std::future<rpc::RpcResponse>> futures;
    auto next = t0;
    while (std::chrono::steady_clock::now() < t_end) {
      futures.push_back(
          client.submit("conv", input.data(), sin, /*deadline_ms=*/kSloMs));
      next += interval;
      std::this_thread::sleep_until(next);
    }
    std::vector<double> admitted_ms, admitted_queue_ms;
    for (auto& f : futures) {
      const rpc::RpcResponse r = f.get();
      ++overload_total;
      if (rpc::status_is_shed(r.status)) {
        ++overload_shed;
      } else if (r.ok()) {
        ++overload_ok;
        admitted_ms.push_back(r.queue_ms + r.exec_ms);
        admitted_queue_ms.push_back(r.queue_ms);
      } else {
        ++overload_other;  // deadline expired in queue, transport, ...
      }
    }
    shed_rate = overload_total > 0 ? static_cast<double>(overload_shed) /
                                         static_cast<double>(overload_total)
                                   : 0;
    admitted_p99_ms = quantile(admitted_ms, 0.99);
    admitted_queue_p99_ms = quantile(admitted_queue_ms, 0.99);
  }
  // Queue wait is part of every admitted request's time, so the total p99
  // bounds the queue p99 too: one comparison against the SLO itself.
  const bool p99_within_slo = admitted_p99_ms <= kSloMs;

  // --- teardown ---------------------------------------------------------
  ::close(backend.stdin_fd);  // EOF → backend stops and exits
  int status = 0;
  ::waitpid(backend.pid, &status, 0);

  std::printf("rpc loopback — driver + 1 backend process, unix socket, "
              "C=C'=256, F(4x4), max_batch %d\n\n",
              kMaxBatch);
  std::printf("  %-32s %10.0f req/s\n", "in-proc batched (baseline)",
              in_proc_rps);
  std::printf("  %-32s %10.0f req/s   (%.2fx of in-proc, floor 0.80x)\n",
              "1 backend, loopback", rpc_rps, ratio);
  std::printf("\n  overload 2x for 3 s, deadline = SLO = %.0f ms:\n",
              kSloMs);
  std::printf("    offered %.0f req/s, %llu requests: %llu ok, %llu shed "
              "(%.1f%%), %llu other\n",
              offered_rps, static_cast<unsigned long long>(overload_total),
              static_cast<unsigned long long>(overload_ok),
              static_cast<unsigned long long>(overload_shed),
              100.0 * shed_rate,
              static_cast<unsigned long long>(overload_other));
  std::printf("    admitted p99 %.1f ms (queue p99 %.1f ms) vs SLO %.0f ms "
              "— %s\n",
              admitted_p99_ms, admitted_queue_p99_ms, kSloMs,
              p99_within_slo ? "within SLO" : "SLO MISSED");

  if (!json_path.empty()) {
    ondwin::bench::BenchReport report("rpc_loopback");
    report.row()
        .set("phase", "in_proc_batched")
        .set("max_batch", static_cast<double>(kMaxBatch))
        .set("requests", static_cast<double>(kRequests))
        .set("rps", in_proc_rps);
    report.row()
        .set("phase", "rpc_loopback")
        .set("backends", 1.0)
        .set("requests", static_cast<double>(kRequests))
        .set("rps", rpc_rps)
        .set("ratio_vs_in_proc", ratio)
        .set("floor", 0.8)
        .set("meets_floor", ratio >= 0.8);
    report.row()
        .set("phase", "rpc_overload")
        .set("offered_rps", offered_rps)
        .set("slo_ms", kSloMs)
        .set("total", static_cast<double>(overload_total))
        .set("ok", static_cast<double>(overload_ok))
        .set("shed", static_cast<double>(overload_shed))
        .set("other", static_cast<double>(overload_other))
        .set("shed_rate", shed_rate)
        .set("admitted_p99_ms", admitted_p99_ms)
        .set("admitted_queue_p99_ms", admitted_queue_p99_ms)
        .set("p99_within_slo", p99_within_slo);
    report.write_json(json_path);
  }
  return 0;
}
