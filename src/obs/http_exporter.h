// ondwin::obs HTTP exporter — a minimal epoll-driven HTTP/1.1 server for
// debug/metrics scraping: GET /metrics (Prometheus text exposition),
// /statusz (build info, uptime, memory/pool/hugepage state plus any
// registered sections), /tracez (recent span summaries from the
// tracer), /healthz (liveness probe).
//
// Deliberately NOT a general web server: GET only, Connection: close,
// bounded request size (oversize → 431 + close), exact-path routing.
// One loop thread owns the listener and every connection, mirroring the
// rpc::RpcServer event-loop structure (non-blocking fds, per-connection
// rx buffer, EPOLLOUT armed only while a partial response is pending).
// Handlers run on the loop thread — they must be snapshot-cheap, which
// every metrics/status renderer in the tree is.
//
// Wiring: serve::InferenceServer and rpc::RpcServer start one when their
// options carry an http_port >= 0 (port 0 lets the kernel pick; read it
// back from port()). Standalone use:
//
//   obs::HttpExporter exporter({.port = 9464});
//   exporter.add_statusz_section("cache", [&] { return cache.status(); });
//   exporter.start();
//   ... curl http://127.0.0.1:9464/metrics ...
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/common.h"

namespace ondwin::obs {

struct HttpExporterOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-picked; read back via port()
  int backlog = 16;
  /// Requests larger than this (headers included) get 431 + close.
  std::size_t max_request_bytes = 8192;
};

struct HttpRequest {
  std::string method;
  std::string path;  // without the query string
  std::string query;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpExporterStats {
  u64 requests = 0;
  u64 responses_2xx = 0;
  u64 responses_4xx = 0;
  u64 bad_requests = 0;  // parse failures + oversize
};

class HttpExporter {
 public:
  explicit HttpExporter(HttpExporterOptions options = {});

  /// Implies stop().
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Registers/replaces the handler for an exact path. Must be called
  /// before start().
  void handle(const std::string& path, HttpHandler handler);

  /// Overrides the /metrics body (defaults to the global registry plus
  /// tracer self-metrics). Must be called before start().
  void set_metrics_provider(std::function<std::string()> provider);

  /// Appends a titled section to /statusz. Must be called before
  /// start().
  void add_statusz_section(const std::string& title,
                           std::function<std::string()> render);

  /// Binds, listens and launches the loop thread. Installs the default
  /// routes (/metrics, /statusz, /tracez, /healthz) for paths without an
  /// explicit handler. Throws on socket errors.
  void start();

  /// Closes the listener and every connection, joins the loop.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  /// The bound TCP port (after start()).
  int port() const { return bound_port_; }

  HttpExporterStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::string rx;       // request bytes until the blank line
    std::string tx;       // serialized response
    std::size_t off = 0;  // bytes of tx already written
    bool want_write = false;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  void loop();
  void accept_ready();
  void on_readable(const ConnPtr& conn);
  void respond(const ConnPtr& conn, const HttpResponse& resp);
  bool flush_tx(const ConnPtr& conn);  // false = close when done/broken
  void close_conn(const ConnPtr& conn);
  HttpResponse route(const HttpRequest& req);
  std::string default_statusz();

  const HttpExporterOptions options_;
  std::map<std::string, HttpHandler> routes_;
  std::function<std::string()> metrics_provider_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      statusz_sections_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int bound_port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  u64 start_ns_ = 0;

  std::unordered_map<int, ConnPtr> conns_;

  std::atomic<u64> requests_{0};
  std::atomic<u64> responses_2xx_{0};
  std::atomic<u64> responses_4xx_{0};
  std::atomic<u64> bad_requests_{0};
};

}  // namespace ondwin::obs
