// ondwin::rpc coverage: wire-format round trips and rejection of
// malformed frames and mismatched frame shapes, bitwise identity of
// unix-socket serving vs direct execution, mixed in-proc + socket batch
// merging through the shared batcher, admission-control shedding, client
// reconnect, and consistent-hash placement / failover in the shard
// router.
#include "rpc/rpc_server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/conv_plan.h"
#include "engine_parker.h"
#include "obs/trace.h"
#include "rpc/rpc_client.h"
#include "rpc/shard_router.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace ondwin::rpc {
namespace {

ConvProblem sample_problem() {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 16;
  p.shape.out_channels = 16;
  p.shape.image = {8, 8};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {2, 2};
  return p;
}

PlanOptions one_thread() {
  PlanOptions o;
  o.threads = 1;
  return o;
}

void fill_random(AlignedBuffer<float>& buf, std::size_t floats, u64 seed) {
  buf.reset(floats);
  Rng rng(seed);
  for (std::size_t i = 0; i < floats; ++i) {
    buf.data()[i] = rng.uniform(-0.5f, 0.5f);
  }
}

std::string test_socket_path(const char* tag) {
  return str_cat("/tmp/ondwin_rpc_", tag, "_", ::getpid(), ".sock");
}

FrameHeader sample_header() {
  FrameHeader h;
  h.type = FrameType::kResponse;
  h.request_id = 0x0123456789ABCDEFull;
  h.deadline_us = 250000;
  h.status = kShedSlo;
  h.model_len = 17;
  h.payload_bytes = 123456;
  h.batch_size = 8;
  h.queue_ms = 1.25;
  h.exec_ms = 3.5;
  h.trace_id = 0xFEEDFACECAFEF00Dull;
  h.parent_span_id = 0xDEADBEEF12345678ull;
  h.rank = 3;
  h.batch = 7;
  h.in_channels = 96;
  h.out_channels = 128;
  for (int d = 0; d < 3; ++d) {
    h.image[d] = static_cast<u16>(30 + d);
    h.kernel[d] = 3;
    h.padding[d] = 1;
  }
  return h;
}

// ---------------------------------------------------------------- frames

TEST(RpcFrame, HeaderRoundTripsEveryField) {
  const FrameHeader h = sample_header();
  u8 buf[kFrameHeaderBytes];
  encode_header(h, buf);

  FrameHeader d;
  ASSERT_EQ(decode_header(buf, sizeof(buf), &d), DecodeResult::kOk);
  EXPECT_EQ(d.version, kFrameVersion);
  EXPECT_EQ(d.trace_id, h.trace_id);
  EXPECT_EQ(d.parent_span_id, h.parent_span_id);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.deadline_us, h.deadline_us);
  EXPECT_EQ(d.status, h.status);
  EXPECT_EQ(d.model_len, h.model_len);
  EXPECT_EQ(d.payload_bytes, h.payload_bytes);
  EXPECT_EQ(d.batch_size, h.batch_size);
  EXPECT_DOUBLE_EQ(d.queue_ms, h.queue_ms);
  EXPECT_DOUBLE_EQ(d.exec_ms, h.exec_ms);
  EXPECT_EQ(d.rank, h.rank);
  EXPECT_EQ(d.batch, h.batch);
  EXPECT_EQ(d.in_channels, h.in_channels);
  EXPECT_EQ(d.out_channels, h.out_channels);
  for (int i = 0; i < kMaxNd; ++i) {
    EXPECT_EQ(d.image[i], h.image[i]);
    EXPECT_EQ(d.kernel[i], h.kernel[i]);
    EXPECT_EQ(d.padding[i], h.padding[i]);
  }
}

TEST(RpcFrame, TruncatedHeaderRejected) {
  u8 buf[kFrameHeaderBytes];
  encode_header(sample_header(), buf);
  FrameHeader d;
  for (std::size_t n : {std::size_t{0}, std::size_t{1},
                        std::size_t{kFrameHeaderBytes - 1}}) {
    EXPECT_EQ(decode_header(buf, n, &d), DecodeResult::kTruncated);
  }
}

// Any single flipped bit in the protected region must be caught — by the
// magic/version checks for the prefix, by the CRC for everything else.
TEST(RpcFrame, CorruptHeaderRejected) {
  u8 good[kFrameHeaderBytes];
  encode_header(sample_header(), good);
  FrameHeader d;
  int rejected = 0;
  for (std::size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    u8 buf[kFrameHeaderBytes];
    std::memcpy(buf, good, sizeof(buf));
    buf[byte] ^= 0x40;
    if (decode_header(buf, sizeof(buf), &d) != DecodeResult::kOk) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, static_cast<int>(kFrameHeaderBytes));
}

TEST(RpcFrame, OversizedLengthsRejected) {
  FrameHeader h = sample_header();
  u8 buf[kFrameHeaderBytes];
  FrameHeader d;

  h.model_len = kMaxModelLen + 1;
  encode_header(h, buf);
  EXPECT_EQ(decode_header(buf, sizeof(buf), &d), DecodeResult::kBadLength);

  h = sample_header();
  h.payload_bytes = kMaxPayloadBytes + 1;
  encode_header(h, buf);
  EXPECT_EQ(decode_header(buf, sizeof(buf), &d), DecodeResult::kBadLength);

  h = sample_header();
  h.rank = kMaxNd + 1;
  encode_header(h, buf);
  EXPECT_EQ(decode_header(buf, sizeof(buf), &d), DecodeResult::kBadShape);
}

// The decoder accepts both wire versions: a legacy v1 header (104 bytes,
// no trace context) decodes fully, reporting version 1 and a zero trace
// context, so the server can reject it *politely* — lengths intact, the
// stream stays in sync.
TEST(RpcFrame, LegacyV1HeaderDecodesWithZeroTraceContext) {
  const FrameHeader h = sample_header();
  u8 buf[kFrameHeaderBytesV1];
  encode_header_v1(h, buf);

  u16 version = 0;
  ASSERT_EQ(peek_frame_version(buf, sizeof(buf), &version),
            DecodeResult::kOk);
  EXPECT_EQ(version, 1);
  EXPECT_EQ(frame_header_bytes(version), kFrameHeaderBytesV1);

  FrameHeader d;
  ASSERT_EQ(decode_header(buf, sizeof(buf), &d), DecodeResult::kOk);
  EXPECT_EQ(d.version, 1);
  EXPECT_EQ(d.trace_id, 0u);        // v1 carries no trace context
  EXPECT_EQ(d.parent_span_id, 0u);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.model_len, h.model_len);
  EXPECT_EQ(d.payload_bytes, h.payload_bytes);
  EXPECT_EQ(d.rank, h.rank);
}

// A v2 header truncated at the v1 prefix length is reported kTruncated —
// the "read more and retry" signal a dual-length receiver relies on —
// while peeking the version needs only the first 8 bytes.
TEST(RpcFrame, VersionPeekAndDualLengthRead) {
  u8 buf[kFrameHeaderBytes];
  encode_header(sample_header(), buf);

  u16 version = 0;
  EXPECT_EQ(peek_frame_version(buf, 5, &version), DecodeResult::kTruncated);
  ASSERT_EQ(peek_frame_version(buf, 8, &version), DecodeResult::kOk);
  EXPECT_EQ(version, kFrameVersion);
  EXPECT_EQ(frame_header_bytes(version), kFrameHeaderBytes);
  EXPECT_EQ(frame_header_bytes(77), 0u);  // unknown version: unparseable

  FrameHeader d;
  EXPECT_EQ(decode_header(buf, kFrameHeaderBytesV1, &d),
            DecodeResult::kTruncated);
  EXPECT_EQ(decode_header(buf, kFrameHeaderBytes, &d), DecodeResult::kOk);

  // Garbage magic is caught by the peek, before any length is trusted.
  u8 bad[8];
  std::memcpy(bad, buf, sizeof(bad));
  bad[0] ^= 0xFF;
  EXPECT_EQ(peek_frame_version(bad, sizeof(bad), &version),
            DecodeResult::kBadMagic);
}

TEST(RpcFrame, ShapeRoundTripAndMatch) {
  const ConvProblem p = sample_problem();
  FrameHeader h;
  ASSERT_TRUE(shape_to_header(p.shape, &h));
  EXPECT_TRUE(shape_matches(h, p.shape));

  const ConvShape back = header_to_shape(h);
  EXPECT_EQ(back.batch, p.shape.batch);
  EXPECT_EQ(back.in_channels, p.shape.in_channels);
  EXPECT_EQ(back.image.rank(), p.shape.image.rank());
  for (int d = 0; d < back.image.rank(); ++d) {
    EXPECT_EQ(back.image[d], p.shape.image[d]);
    EXPECT_EQ(back.kernel[d], p.shape.kernel[d]);
    EXPECT_EQ(back.padding[d], p.shape.padding[d]);
  }

  ConvShape other = p.shape;
  other.out_channels = 32;
  EXPECT_FALSE(shape_matches(h, other));

  ConvShape huge = p.shape;
  huge.image = {100000, 8};  // exceeds the u16 wire field
  EXPECT_FALSE(shape_to_header(huge, &h));
}

// ------------------------------------------------------------- admission

TEST(RpcAdmission, ShedsByInflightDeadlineAndSlo) {
  AdmissionOptions opt;
  opt.max_inflight = 2;
  opt.slo_ms = 500;
  AdmissionController ctl(opt);

  // Cold start: nothing observed, everything within bounds admits.
  EXPECT_TRUE(ctl.admit(/*queue_depth=*/100, /*max_batch=*/4,
                        /*deadline_ms=*/1)
                  .admit);

  // Seed the estimator: one completed batch at 10 ms.
  ctl.on_admitted();
  ctl.on_completed(10.0, true);

  // 100 queued / batch 4 → ~26 batches × 10 ms ≈ 260 ms estimated wait.
  AdmissionDecision d = ctl.admit(100, 4, /*deadline_ms=*/50);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.shed_status, kShedDeadline);
  EXPECT_GT(d.estimated_wait_ms, 50.0);

  // No deadline, but the 500 ms SLO gate trips at higher depth.
  d = ctl.admit(400, 4, 0);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.shed_status, kShedSlo);

  // Shallow queue: admitted.
  EXPECT_TRUE(ctl.admit(4, 4, 50).admit);

  // Saturate the in-flight bound.
  ctl.on_admitted();
  ctl.on_admitted();
  d = ctl.admit(0, 4, 0);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.shed_status, kShedQueueFull);

  const AdmissionController::Stats s = ctl.stats();
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.shed_slo, 1u);
  EXPECT_EQ(s.shed_queue_full, 1u);
  EXPECT_EQ(s.inflight, 2);
}

TEST(RpcAdmission, ExecFloorScalesColdStartEstimate) {
  AdmissionOptions opt;
  opt.min_exec_ms = 0.5;
  AdmissionController ctl(opt);

  // Before any completion the cached p50 is zero; the floor keeps the
  // wait estimate proportional to queue depth instead of admitting a
  // doomed request into a 100-deep queue.
  AdmissionDecision d = ctl.admit(/*queue_depth=*/99, /*max_batch=*/4,
                                  /*deadline_ms=*/10);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.shed_status, kShedDeadline);
  EXPECT_DOUBLE_EQ(d.estimated_wait_ms, 12.5);  // ceil(100/4) = 25 × 0.5

  // Shallow queues still clear the same deadline under the floor.
  EXPECT_TRUE(ctl.admit(3, 4, 10).admit);

  // A degenerately fast first window (p50 ≈ 1 µs) stays clamped: the
  // refreshed median loses to the floor, so the estimate cannot collapse.
  ctl.on_admitted();
  ctl.on_completed(0.001, true);
  d = ctl.admit(99, 4, /*deadline_ms=*/10);
  EXPECT_FALSE(d.admit);
  EXPECT_DOUBLE_EQ(d.estimated_wait_ms, 12.5);

  // min_exec_ms = 0 restores the pre-floor behavior: a cold controller
  // estimates zero wait and admits everything within bounds.
  AdmissionOptions raw;
  raw.min_exec_ms = 0;
  AdmissionController cold(raw);
  d = cold.admit(10000, 4, /*deadline_ms=*/0.001);
  EXPECT_TRUE(d.admit);
  EXPECT_DOUBLE_EQ(d.estimated_wait_ms, 0.0);
}

// ------------------------------------------------- end-to-end unix socket

struct Fixture {
  ConvProblem p = sample_problem();
  std::size_t sin = 0;
  std::size_t sout = 0;
  AlignedBuffer<float> weights;
  serve::InferenceServer server;

  explicit Fixture(int max_batch = 4, double max_delay_ms = 50.0) {
    sin = static_cast<std::size_t>(p.input_layout().total_floats());
    sout = static_cast<std::size_t>(p.output_layout().total_floats());
    fill_random(weights,
                static_cast<std::size_t>(p.kernel_layout().total_floats()),
                0xBEEF);
    serve::ModelConfig config;
    config.batching.max_batch = max_batch;
    config.batching.max_delay_ms = max_delay_ms;
    config.plan = one_thread();
    server.register_conv("conv", p, weights.data(), config);
  }

  /// Direct single-sample reference execution. The output buffer must be
  /// aligned — the plan's kernels use aligned vector stores.
  std::vector<float> expected(const AlignedBuffer<float>& input) {
    ConvPlan direct(p, one_thread());
    direct.set_kernels(weights.data());
    AlignedBuffer<float> out;
    out.reset(sout);
    direct.execute_pretransformed(input.data(), out.data());
    return std::vector<float>(out.data(), out.data() + sout);
  }
};

// The headline guarantee: a sample served over a unix socket produces the
// EXACT bits of a direct in-process execution — the payload lands in a
// pool slab, rides the same batcher queue, and comes back unmodified.
TEST(RpcLoopback, SocketServingIsBitwiseIdenticalToDirect) {
  Fixture fx;
  const std::string path = test_socket_path("bitwise");
  RpcServerOptions so;
  so.unix_path = path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  RpcClientOptions co;
  co.unix_path = path;
  co.connections = 2;
  RpcClient client(co);

  constexpr int kSamples = 12;
  std::vector<AlignedBuffer<float>> inputs(kSamples);
  std::vector<std::future<RpcResponse>> futures;
  for (int s = 0; s < kSamples; ++s) {
    fill_random(inputs[static_cast<std::size_t>(s)], fx.sin,
                0x9000 + static_cast<u64>(s));
    futures.push_back(client.submit(
        "conv", inputs[static_cast<std::size_t>(s)].data(), fx.sin));
  }
  for (int s = 0; s < kSamples; ++s) {
    RpcResponse r = futures[static_cast<std::size_t>(s)].get();
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.output.size(), fx.sout);
    const std::vector<float> want =
        fx.expected(inputs[static_cast<std::size_t>(s)]);
    EXPECT_EQ(std::memcmp(r.output.data(), want.data(),
                          fx.sout * sizeof(float)),
              0)
        << "sample " << s << " differs from direct execution";
    EXPECT_GE(r.batch_size, 1);
  }
  EXPECT_TRUE(client.ping());

  const RpcServerStats st = rpc.stats();
  EXPECT_EQ(st.requests, static_cast<u64>(kSamples));
  EXPECT_EQ(st.admission.admitted, static_cast<u64>(kSamples));
  EXPECT_EQ(st.protocol_errors, 0u);

  // The rpc tier surfaces through the same metrics endpoint as serving.
  const std::string prom = fx.server.metrics_prometheus();
  EXPECT_NE(prom.find("ondwin_rpc_requests_total"), std::string::npos);

  rpc.stop();
}

// In-proc submits and socket submits interleave through the SAME batcher:
// two of each must coalesce into one batch of four, and every result must
// match direct execution bitwise.
TEST(RpcLoopback, MixedInProcAndSocketRequestsShareBatches) {
  Fixture fx(/*max_batch=*/4, /*max_delay_ms=*/2000.0);
  const std::string path = test_socket_path("mixed");
  RpcServerOptions so;
  so.unix_path = path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  RpcClientOptions co;
  co.unix_path = path;
  RpcClient client(co);
  EXPECT_TRUE(client.ping());  // connection warm before the clock starts

  std::vector<AlignedBuffer<float>> inputs(4);
  for (int s = 0; s < 4; ++s) {
    fill_random(inputs[static_cast<std::size_t>(s)], fx.sin,
                0x7000 + static_cast<u64>(s));
  }

  // A busy engine holds all four in the queue, however far apart the
  // socket and in-proc arrivals land.
  serve::EngineParker parker(fx.server, "conv");
  std::vector<std::future<RpcResponse>> socket_futures;
  socket_futures.push_back(client.submit("conv", inputs[0].data(), fx.sin));
  socket_futures.push_back(client.submit("conv", inputs[1].data(), fx.sin));
  std::vector<serve::ResultFuture> local_futures;
  local_futures.push_back(fx.server.submit("conv", inputs[2].data()));
  local_futures.push_back(fx.server.submit("conv", inputs[3].data()));
  parker.wait_queued(4);
  parker.release();

  for (int s = 0; s < 2; ++s) {
    RpcResponse r = socket_futures[static_cast<std::size_t>(s)].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, 4) << "socket request not merged";
    const std::vector<float> want =
        fx.expected(inputs[static_cast<std::size_t>(s)]);
    EXPECT_EQ(std::memcmp(r.output.data(), want.data(),
                          fx.sout * sizeof(float)),
              0);
  }
  for (int s = 2; s < 4; ++s) {
    serve::InferenceResult r =
        local_futures[static_cast<std::size_t>(s - 2)].get();
    EXPECT_EQ(r.batch_size, 4) << "in-proc request not merged";
    const std::vector<float> want =
        fx.expected(inputs[static_cast<std::size_t>(s)]);
    EXPECT_EQ(std::memcmp(r.output.data(), want.data(),
                          fx.sout * sizeof(float)),
              0);
  }
  EXPECT_EQ(fx.server.stats().models.at("conv").batches, 1u);
  rpc.stop();
}

// Bad requests draw error frames while the connection stays usable, and a
// header the server cannot even parse drops the connection (the client
// reports it as a transport error).
TEST(RpcLoopback, RejectsBadRequestsAndStaysUp) {
  Fixture fx;
  const std::string path = test_socket_path("badreq");
  RpcServerOptions so;
  so.unix_path = path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  RpcClientOptions co;
  co.unix_path = path;
  RpcClient client(co);

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0xAB);

  RpcResponse r = client.infer("nope", input.data(), fx.sin);
  EXPECT_EQ(r.status, kUnknownModel);
  EXPECT_FALSE(r.error.empty());

  r = client.infer("conv", input.data(), fx.sin / 2);  // wrong size
  EXPECT_EQ(r.status, kBadRequest);

  // After both rejections (payloads discarded), a good request succeeds
  // on the same connection.
  r = client.infer("conv", input.data(), fx.sin);
  ASSERT_TRUE(r.ok()) << r.error;
  const std::vector<float> want = fx.expected(input);
  EXPECT_EQ(
      std::memcmp(r.output.data(), want.data(), fx.sout * sizeof(float)),
      0);

  // Oversized model name: the header itself is invalid, so the server
  // hangs up rather than trusting anything that follows.
  const std::string huge_name(kMaxModelLen + 1, 'x');
  r = client.infer(huge_name, input.data(), fx.sin);
  EXPECT_EQ(r.status, kTransportError);
  EXPECT_GE(rpc.stats().protocol_errors, 1u);

  // And the pool reconnects transparently for the next request.
  r = client.infer("conv", input.data(), fx.sin);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GE(client.stats().reconnects, 1u);
  rpc.stop();
}

// With max_inflight=1 and a parked engine, the second pipelined request
// is shed with queue_full while the first is still queued.
TEST(RpcLoopback, AdmissionShedsPipelinedOverload) {
  Fixture fx(/*max_batch=*/8, /*max_delay_ms=*/300.0);
  const std::string path = test_socket_path("shed");
  RpcServerOptions so;
  so.unix_path = path;
  so.admission.max_inflight = 1;
  RpcServer rpc(fx.server, so);
  rpc.start();

  RpcClientOptions co;
  co.unix_path = path;
  RpcClient client(co);

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0xCD);
  serve::EngineParker parker(fx.server, "conv");
  std::future<RpcResponse> first =
      client.submit("conv", input.data(), fx.sin);
  std::future<RpcResponse> second =
      client.submit("conv", input.data(), fx.sin);
  parker.wait_queued(1);

  RpcResponse r2 = second.get();  // shed answer arrives fast
  EXPECT_EQ(r2.status, kShedQueueFull);
  EXPECT_TRUE(status_is_shed(r2.status));
  parker.release();
  RpcResponse r1 = first.get();  // served once the engine is free
  EXPECT_TRUE(r1.ok()) << r1.error;

  const RpcServerStats st = rpc.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.admission.shed_queue_full, 1u);
  rpc.stop();
}

// The server's graceful stop() waits for admitted responses to hit the
// wire: a request in flight when stop() begins still completes.
TEST(RpcLoopback, StopDrainsAdmittedRequests) {
  Fixture fx(/*max_batch=*/4, /*max_delay_ms=*/50.0);
  const std::string path = test_socket_path("drain");
  RpcServerOptions so;
  so.unix_path = path;
  auto rpc = std::make_unique<RpcServer>(fx.server, so);
  rpc->start();

  RpcClientOptions co;
  co.unix_path = path;
  RpcClient client(co);

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0xEF);
  std::future<RpcResponse> f = client.submit("conv", input.data(), fx.sin);
  // Small head start so the request is admitted before stop() lands.
  while (rpc->stats().admission.admitted == 0 &&
         rpc->stats().protocol_errors == 0) {
    std::this_thread::yield();
  }
  rpc->stop();

  RpcResponse r = f.get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.output.size(), fx.sout);
}

namespace {

/// Blocking raw unix-socket client, for hand-crafted wire bytes.
int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Reads one full response frame (dual-length header + payload).
bool read_frame(int fd, FrameHeader* h, std::string* payload) {
  u8 buf[kFrameHeaderBytes];
  if (!read_all(fd, buf, kFrameHeaderBytesV1)) return false;
  u16 version = 0;
  if (peek_frame_version(buf, kFrameHeaderBytesV1, &version) !=
      DecodeResult::kOk) {
    return false;
  }
  const std::size_t want = frame_header_bytes(version);
  if (want == 0) return false;
  if (want > kFrameHeaderBytesV1 &&
      !read_all(fd, buf + kFrameHeaderBytesV1,
                want - kFrameHeaderBytesV1)) {
    return false;
  }
  if (decode_header(buf, want, h) != DecodeResult::kOk) return false;
  payload->resize(h->model_len + h->payload_bytes);
  return payload->empty() || read_all(fd, payload->data(), payload->size());
}

}  // namespace

// A legacy v1 request frame is answered with a clean kUnsupportedVersion
// error — not a dropped connection — and the stream stays in sync: a
// valid v2 request on the SAME connection is then served bitwise
// identically to direct execution.
TEST(RpcLoopback, LegacyV1FrameRejectedWithoutStreamDesync) {
  Fixture fx;
  const std::string path = test_socket_path("v1reject");
  RpcServerOptions so;
  so.unix_path = path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0x51);
  const std::string name = "conv";

  FrameHeader req;
  req.type = FrameType::kRequest;
  req.request_id = 1;
  req.model_len = static_cast<u32>(name.size());
  req.payload_bytes = static_cast<u32>(fx.sin * sizeof(float));
  ASSERT_TRUE(shape_to_header(fx.p.shape, &req));

  // The v1 frame: header + name + payload all hit the wire, so the
  // server must discard exactly the advertised lengths to stay in sync.
  u8 v1[kFrameHeaderBytesV1];
  encode_header_v1(req, v1);
  ASSERT_TRUE(write_all(fd, v1, sizeof(v1)));
  ASSERT_TRUE(write_all(fd, name.data(), name.size()));
  ASSERT_TRUE(write_all(fd, input.data(), fx.sin * sizeof(float)));

  FrameHeader resp;
  std::string payload;
  ASSERT_TRUE(read_frame(fd, &resp, &payload));
  EXPECT_EQ(resp.type, FrameType::kError);
  EXPECT_EQ(resp.status, kUnsupportedVersion);
  EXPECT_EQ(resp.request_id, 1u);
  EXPECT_FALSE(payload.empty());  // human-readable version message

  // Same connection, current version: served normally.
  req.request_id = 2;
  u8 v2[kFrameHeaderBytes];
  encode_header(req, v2);
  ASSERT_TRUE(write_all(fd, v2, sizeof(v2)));
  ASSERT_TRUE(write_all(fd, name.data(), name.size()));
  ASSERT_TRUE(write_all(fd, input.data(), fx.sin * sizeof(float)));

  ASSERT_TRUE(read_frame(fd, &resp, &payload));
  EXPECT_EQ(resp.type, FrameType::kResponse);
  EXPECT_EQ(resp.status, kOk);
  EXPECT_EQ(resp.request_id, 2u);
  ASSERT_EQ(payload.size(), fx.sout * sizeof(float));
  const std::vector<float> want = fx.expected(input);
  EXPECT_EQ(std::memcmp(payload.data(), want.data(), payload.size()), 0);

  // A polite version reject is not a protocol error.
  EXPECT_EQ(rpc.stats().protocol_errors, 0u);
  ::close(fd);
  rpc.stop();
}

// A conv model's frame-shape contract: a v2 request that carries a
// ConvShape (rank > 0) and the right payload size, but a shape other than
// the registered one, draws kBadRequest while the stream stays in sync; a
// frame whose shape matches is then served on the same connection,
// bitwise identical to direct execution.
TEST(RpcLoopback, MismatchedFrameShapeRejectedMatchingShapeServed) {
  Fixture fx;
  const std::string path = test_socket_path("shape");
  RpcServerOptions so;
  so.unix_path = path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0x52);
  const std::string name = "conv";

  auto send = [&](u64 id, const ConvShape& shape) {
    FrameHeader req;
    req.type = FrameType::kRequest;
    req.request_id = id;
    req.model_len = static_cast<u32>(name.size());
    req.payload_bytes = static_cast<u32>(fx.sin * sizeof(float));
    ASSERT_TRUE(shape_to_header(shape, &req));
    ASSERT_GT(req.rank, 0);
    u8 hdr[kFrameHeaderBytes];
    encode_header(req, hdr);
    ASSERT_TRUE(write_all(fd, hdr, sizeof(hdr)));
    ASSERT_TRUE(write_all(fd, name.data(), name.size()));
    ASSERT_TRUE(write_all(fd, input.data(), fx.sin * sizeof(float)));
  };

  // Twice the output channels: the input payload size is unchanged, so
  // only the shape check can tell.
  ConvShape wrong = fx.p.shape;
  wrong.out_channels *= 2;
  send(1, wrong);
  FrameHeader resp;
  std::string payload;
  ASSERT_TRUE(read_frame(fd, &resp, &payload));
  EXPECT_EQ(resp.type, FrameType::kError);
  EXPECT_EQ(resp.status, kBadRequest);
  EXPECT_EQ(resp.request_id, 1u);

  send(2, fx.p.shape);
  ASSERT_TRUE(read_frame(fd, &resp, &payload));
  EXPECT_EQ(resp.type, FrameType::kResponse);
  EXPECT_EQ(resp.status, kOk);
  EXPECT_EQ(resp.request_id, 2u);
  ASSERT_EQ(payload.size(), fx.sout * sizeof(float));
  const std::vector<float> want = fx.expected(input);
  EXPECT_EQ(std::memcmp(payload.data(), want.data(), payload.size()), 0);

  EXPECT_EQ(fx.server.stats().models.at("conv").completed, 1u);
  ::close(fd);
  rpc.stop();
}

// With tracing on, one client request produces a connected cross-process
// style span chain: the client's rpc.request span is the parent of the
// server's rpc.admit and rpc.tx spans, and the serve-tier spans carry
// the same trace id — exactly what trace_merge lines up across dumps.
TEST(RpcLoopback, TracedRequestChainsClientAndServerSpans) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  Fixture fx;
  const std::string path = test_socket_path("traced");
  RpcServerOptions so;
  so.unix_path = path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  RpcClientOptions co;
  co.unix_path = path;
  RpcClient client(co);

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0x77);
  const RpcResponse r = client.infer("conv", input.data(), fx.sin);
  ASSERT_TRUE(r.ok()) << r.error;

  // The server records rpc.serialize/rpc.tx on its own threads just
  // after the response hits the wire — give them a beat to land before
  // snapshotting.
  std::vector<obs::CollectedSpan> spans;
  for (int attempt = 0; attempt < 200; ++attempt) {
    spans = tracer.collect();
    int tx = 0;
    for (const obs::CollectedSpan& s : spans) {
      if (std::strcmp(s.name, "rpc.tx") == 0 ||
          std::strcmp(s.name, "rpc.serialize") == 0) {
        ++tx;
      }
    }
    if (tx >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  tracer.set_enabled(false);
  const obs::CollectedSpan* request = nullptr;
  for (const obs::CollectedSpan& s : spans) {
    if (std::strcmp(s.name, "rpc.request") == 0) request = &s;
  }
  ASSERT_NE(request, nullptr) << "client request span missing";
  ASSERT_NE(request->trace_id, 0u);
  ASSERT_NE(request->span_id, 0u);

  // Every server-side span of the request joins its trace; the frame's
  // parent_span_id chains admit and tx directly under the request span.
  auto count = [&](const char* name, bool require_parent) {
    int n = 0;
    for (const obs::CollectedSpan& s : spans) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (s.trace_id != request->trace_id) continue;
      if (require_parent && s.parent_id != request->span_id) continue;
      ++n;
    }
    return n;
  };
  EXPECT_GE(count("rpc.admit", true), 1) << "admit span not chained";
  EXPECT_GE(count("rpc.tx", true), 1) << "tx span not chained";
  EXPECT_GE(count("rpc.serialize", true), 1);
  EXPECT_GE(count("serve.exec", false), 1)
      << "serve tier span missing from the trace";
  EXPECT_GE(count("serve.queue_wait", false), 1);

  rpc.stop();
}

// ----------------------------------------------------------- shard router

TEST(RpcRouter, PlacementIsDeterministicAndReplicated) {
  ShardRouterOptions opt;
  opt.replication = 2;
  ShardRouter router(opt);
  for (const char* name : {"alpha", "bravo", "charlie"}) {
    RpcClientOptions co;
    co.unix_path = str_cat("/tmp/ondwin_absent_", name, ".sock");
    router.add_backend(name, co);
  }
  ASSERT_EQ(router.backend_count(), 3u);

  const std::vector<std::string> a = router.replicas("conv");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NE(a[0], a[1]);
  EXPECT_EQ(router.replicas("conv"), a);  // stable

  // Different keys spread: across a few keys at least two distinct
  // primaries must appear (vnodes make a single-owner ring vanishingly
  // unlikely with 3 backends x 64 points).
  std::vector<std::string> primaries;
  for (const char* key : {"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}) {
    primaries.push_back(router.replicas(key)[0]);
  }
  bool spread = false;
  for (const std::string& p : primaries) {
    if (p != primaries[0]) spread = true;
  }
  EXPECT_TRUE(spread);

  // Removing a replica remaps the key to surviving backends only.
  router.remove_backend(a[0]);
  const std::vector<std::string> after = router.replicas("conv");
  ASSERT_EQ(after.size(), 2u);
  EXPECT_NE(after[0], a[0]);
  EXPECT_NE(after[1], a[0]);
}

// A dead primary fails over to the live replica; a served answer (even a
// shed) never triggers a failover.
TEST(RpcRouter, FailsOverFromDeadPrimary) {
  Fixture fx;
  const std::string live_path = test_socket_path("router");
  RpcServerOptions so;
  so.unix_path = live_path;
  RpcServer rpc(fx.server, so);
  rpc.start();

  // Probe ring order with throwaway endpoints, then wire the FIRST
  // replica of "conv" to a dead path and the second to the live server —
  // the failover is then deterministic.
  ShardRouterOptions opt;
  opt.replication = 2;
  std::vector<std::string> order;
  {
    ShardRouter probe(opt);
    for (const char* name : {"alpha", "bravo"}) {
      RpcClientOptions co;
      co.unix_path = "/tmp/ondwin_absent_probe.sock";
      probe.add_backend(name, co);
    }
    order = probe.replicas("conv");
    ASSERT_EQ(order.size(), 2u);
  }

  ShardRouter router(opt);
  {
    RpcClientOptions dead;
    dead.unix_path = test_socket_path("router_dead");  // nothing listens
    dead.max_retries = 0;
    router.add_backend(order[0], dead);
    RpcClientOptions live;
    live.unix_path = live_path;
    router.add_backend(order[1], live);
  }
  ASSERT_EQ(router.replicas("conv"), order);  // same names → same ring

  AlignedBuffer<float> input;
  fill_random(input, fx.sin, 0x11);
  RpcResponse r = router.infer("conv", input.data(), fx.sin);
  ASSERT_TRUE(r.ok()) << r.error;
  const std::vector<float> want = fx.expected(input);
  EXPECT_EQ(
      std::memcmp(r.output.data(), want.data(), fx.sout * sizeof(float)),
      0);

  u64 failovers = 0;
  for (const auto& b : router.stats()) failovers += b.failovers;
  EXPECT_EQ(failovers, 1u);
  rpc.stop();
}

}  // namespace
}  // namespace ondwin::rpc
