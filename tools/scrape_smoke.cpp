// scrape_smoke — stands up the full serving stack (graph-exec model →
// InferenceServer → RpcServer on a unix socket → RpcClient traffic) with
// the debug HTTP endpoint enabled, self-scrapes /metrics, /statusz and
// /tracez, and verifies the expected metric families are present.
//
//   scrape_smoke                     # self-check, exit 0/1
//   scrape_smoke --port 9464 --hold 30   # also stay up 30 s for curl
//
// CI runs the second form and curls the endpoint from the outside, so
// both the in-process and the on-the-wire paths are exercised.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ondwin/ondwin.h"
#include "util/rng.h"

using namespace ondwin;

namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (::write(fd, req.data(), req.size()) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return {};
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

int g_failures = 0;

void expect_contains(const std::string& what, const std::string& body,
                     const std::string& needle) {
  if (body.find(needle) == std::string::npos) {
    std::fprintf(stderr, "FAIL: %s does not contain '%s'\n", what.c_str(),
                 needle.c_str());
    ++g_failures;
  } else {
    std::fprintf(stderr, "  ok: %s has '%s'\n", what.c_str(),
                 needle.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int hold_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--hold") == 0 && i + 1 < argc) {
      hold_seconds = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--port N] [--hold SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }

  // A small but real network; served networks run on graph::Executor, so
  // the per-node attribution families exist.
  PlanOptions one_thread;
  one_thread.threads = 1;
  auto net = std::make_shared<Sequential>(1, 16, Dims{16, 16}, one_thread);
  net->add_conv(32, {3, 3}, {1, 1}, {4, 4}, true);
  net->add_max_pool(2);
  net->add_conv(32, {3, 3}, {1, 1}, {2, 2}, true);
  Rng rng(0x5CA1E);
  net->randomize_weights(rng);

  serve::InferenceServer server;
  serve::ModelConfig config;
  config.plan.threads = 1;
  server.register_network("net", net, config);

  const std::string socket_path =
      str_cat("/tmp/ondwin_scrape_smoke_", ::getpid(), ".sock");
  rpc::RpcServerOptions ropt;
  ropt.unix_path = socket_path;
  ropt.http_port = port;  // 0 = kernel-picked
  rpc::RpcServer rpc_server(server, ropt);
  rpc_server.start();
  const int http_port = rpc_server.http()->port();
  std::fprintf(stderr, "scrape_smoke: http on 127.0.0.1:%d\n", http_port);
  std::fflush(stderr);

  // Push traffic through the wire so every family has non-zero samples.
  {
    rpc::RpcClientOptions copt;
    copt.unix_path = socket_path;
    rpc::RpcClient client(copt);
    const std::size_t n = static_cast<std::size_t>(
        server.model_info("net").sample_input_floats);
    std::vector<float> input(n, 0.25f);
    for (int i = 0; i < 8; ++i) {
      const rpc::RpcResponse r = client.infer("net", input.data(), n);
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL: rpc infer: %s\n", r.error.c_str());
        ++g_failures;
      }
    }
  }

  const std::string metrics = http_get(http_port, "/metrics");
  expect_contains("/metrics", metrics, "text/plain; version=0.0.4");
  expect_contains("/metrics", metrics, "ondwin_serve_requests_total");
  expect_contains("/metrics", metrics, "ondwin_rpc_requests_total");
  expect_contains("/metrics", metrics, "ondwin_graph_node_seconds");
  expect_contains("/metrics", metrics, "ondwin_obs_spans_lost_total");

  const std::string statusz = http_get(http_port, "/statusz");
  expect_contains("/statusz", statusz, "uptime");
  expect_contains("/statusz", statusz, "rpc");
  expect_contains("/statusz", statusz, "admission:");
  expect_contains("/statusz", statusz, "serving");
  expect_contains("/statusz", statusz, "graph nodes (roofline)");
  expect_contains("/statusz", statusz, "conv#");

  const std::string tracez = http_get(http_port, "/tracez");
  expect_contains("/tracez", tracez, "tracing:");

  const std::string healthz = http_get(http_port, "/healthz");
  expect_contains("/healthz", healthz, "ok");

  if (hold_seconds > 0 && g_failures == 0) {
    std::fprintf(stderr, "scrape_smoke: holding %d s for external scrapes\n",
                 hold_seconds);
    std::fflush(stderr);
    std::this_thread::sleep_for(std::chrono::seconds(hold_seconds));
  }

  rpc_server.stop();
  server.stop();
  if (g_failures > 0) {
    std::fprintf(stderr, "scrape_smoke: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "scrape_smoke: PASS\n");
  return 0;
}
