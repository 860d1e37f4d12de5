// VGG-style 2D inference pipeline (paper's object-detection workload).
//
//   $ ./example_vgg_inference [--full]
//
// Builds the convolutional backbone of a VGG-A-like network with the
// Sequential builder and runs it on graph::Executor: every layer's kernels
// are transformed once at compile time (paper §4.2.1 "Inference only"),
// bias+ReLU (and the 2x2 max-pools that follow a conv) are fused into the
// inverse-transform stage, and activations stay in the blocked layout on
// one planned arena slab from end to end.
#include <cstdio>
#include <string>

#include "graph/executor.h"
#include "net/sequential.h"
#include "ondwin/ondwin.h"
#include "util/rng.h"

using namespace ondwin;

int main(int argc, char** argv) {
  const bool full = (argc > 1 && std::string(argv[1]) == "--full");
  const i64 batch = 1;

  struct Stage {
    i64 channels;
    int convs;
  };
  // CI sizes keep this runnable on one core in seconds; --full uses the
  // paper's 224² input with the VGG-A channel progression.
  const i64 input_hw = full ? 224 : 56;
  const std::vector<Stage> stages =
      full ? std::vector<Stage>{{64, 1}, {128, 1}, {256, 2}, {512, 2}}
           : std::vector<Stage>{{16, 1}, {32, 1}, {64, 2}};

  Sequential net(batch, 16, {input_hw, input_hw});
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (int c = 0; c < stages[s].convs; ++c) {
      net.add_conv(stages[s].channels, {3, 3}, {1, 1}, {4, 4});
    }
    if (s + 1 < stages.size()) net.add_max_pool(2);
  }
  Rng rng(7);
  net.randomize_weights(rng);

  graph::Executor exec(net.to_graph());
  std::printf("VGG-style backbone (%s sizes), batch=%lld:\n%s",
              full ? "paper" : "CI", static_cast<long long>(batch),
              exec.summary().c_str());
  std::printf("activation arena: %.1f MiB\n\n",
              static_cast<double>(exec.arena_bytes()) / (1 << 20));

  AlignedBuffer<float> input(
      static_cast<std::size_t>(exec.input_layout().total_floats()));
  AlignedBuffer<float> output(
      static_cast<std::size_t>(exec.output_layout().total_floats()));
  for (auto& v : input) v = rng.uniform(-1.0f, 1.0f);

  // Warm-up, then report the best of three forward passes.
  exec.execute(input.data(), output.data());
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    exec.execute(input.data(), output.data());
    best = std::min(best, exec.last_execute_seconds());
  }
  for (std::size_t i = 0; i < exec.step_count(); ++i) {
    std::printf("  step %2zu: %8.2f ms\n", i, exec.step_seconds(i) * 1e3);
  }
  std::printf("backbone total: %.2f ms per batch\n", best * 1e3);

  double checksum = 0;
  for (const float v : output) checksum += v;
  std::printf("output %s x %lld channels, activation checksum %.3f\n",
              exec.output_layout().spatial.to_string().c_str(),
              static_cast<long long>(exec.output_layout().channels),
              checksum);
  return 0;
}
