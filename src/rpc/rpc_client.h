// ondwin::rpc client — connection-pooled, pipelined access to an
// RpcServer endpoint.
//
// Each pooled connection has one blocking reader thread and allows many
// requests in flight (pipelining): submit() registers a promise keyed by
// request id, writes the frame, and returns a future; the reader matches
// response frames back to promises, so a caller never waits behind an
// unrelated request's execution — only behind the wire.
//
// Failure policy: a write that fails (including mid-frame) means the
// server never saw the complete request, so the client reconnects and
// retries transparently up to max_retries. A connection that dies AFTER a
// request was fully written fails that request with kTransportError —
// the server may or may not have executed it. Inference is a pure
// function of its input, so callers are free to re-submit on
// kTransportError (to the same endpoint or another replica); the client
// itself will not.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rpc/frame.h"

namespace ondwin::rpc {

struct RpcClientOptions {
  /// AF_UNIX target (takes precedence when non-empty).
  std::string unix_path;

  /// AF_INET target (used when unix_path is empty).
  std::string host = "127.0.0.1";
  int port = 0;

  /// Pool size. Requests pick the least-busy connection.
  int connections = 1;

  /// Reconnect-and-retry budget for failed WRITES (see failure policy
  /// above; fully written requests are never retried here).
  int max_retries = 1;
};

/// One server reply. status != kOk carries the server's (or the client's
/// transport-level) error message instead of output data.
struct RpcResponse {
  u32 status = kTransportError;
  std::string error;
  std::vector<float> output;
  int batch_size = 0;
  double queue_ms = 0;  // server-side queue wait of the carrying batch
  double exec_ms = 0;   // server-side execution time of the carrying batch

  bool ok() const { return status == kOk; }
};

class RpcClient {
 public:
  explicit RpcClient(RpcClientOptions options);

  /// Implies close().
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Pipelined submit. `deadline_ms` > 0 is encoded into the frame and
  /// enforced server-side (admission estimate + engine-side expiry).
  /// Never throws for server/transport failures — those come back as
  /// RpcResponse::status. Lazily connects.
  std::future<RpcResponse> submit(const std::string& model,
                                  const float* data, std::size_t n,
                                  double deadline_ms = 0);

  /// Blocking convenience wrapper around submit().
  RpcResponse infer(const std::string& model, const float* data,
                    std::size_t n, double deadline_ms = 0);

  /// Round-trips a ping frame; false if the endpoint is unreachable.
  bool ping();

  /// Requests written in full but not yet answered, across the pool.
  i64 outstanding() const;

  /// Fails everything in flight with kTransportError and joins readers.
  void close();

  const std::string& endpoint() const { return endpoint_name_; }

  struct Stats {
    u64 requests = 0;
    u64 responses = 0;
    u64 transport_errors = 0;  // connections lost with requests in flight
    u64 reconnects = 0;
    u64 write_retries = 0;
  };
  Stats stats() const;

 private:
  struct PendingCall;
  struct Conn;

  int connect_fd();
  bool ensure_connected(Conn& conn);
  void reader_loop(Conn& conn, u64 generation);
  void fail_pending(Conn& conn, const std::string& why);
  std::future<RpcResponse> submit_frame(const FrameHeader& base,
                                        const std::string& model,
                                        const float* data, std::size_t n);

  const RpcClientOptions options_;
  std::string endpoint_name_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<u64> next_id_{1};
  std::atomic<u64> next_conn_{0};
  std::atomic<bool> closed_{false};

  std::atomic<u64> requests_{0};
  std::atomic<u64> responses_{0};
  std::atomic<u64> transport_errors_{0};
  std::atomic<u64> reconnects_{0};
  std::atomic<u64> write_retries_{0};
};

}  // namespace ondwin::rpc
