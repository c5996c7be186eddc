// The traced run's replay: calls into the library's public functions from
// outside, at the shapes the workload uses, each timed with a span of the
// benchmark's own (a standalone obs::Telemetry). Per-layer metrics are
// medians over repetitions of one call.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "models/classifier.hpp"
#include "tensor/tensor.hpp"

namespace perf {

namespace models = zkg::models;

class Replay {
 public:
  explicit Replay(zkg::obs::Telemetry& spans) : spans_(spans) {}

  /// Runs `fn` under the span `name`; returns its milliseconds.
  double span(const char* name, const std::function<void()>& fn);
  /// Adds one sample (ms) to the metric `name`.
  void sample(const std::string& name, double ms) {
    ms_[name].push_back(ms);
  }
  /// Times one call of `fn` under the span `name` and samples it.
  void time(const char* name, const std::function<void()>& fn) {
    sample(name, span(name, fn));
  }

  /// Median of the samples of `name` (ms). Throws std::logic_error when
  /// `name` was never sampled, so a metric cannot silently read 0.
  double median_ms(const std::string& name) const;

 private:
  zkg::obs::Telemetry& spans_;
  std::map<std::string, std::vector<double>> ms_;
};

/// One empty-body parallel_for dispatch across the kernel team, in
/// microseconds (median over blocks of calls).
double parallel_for_us(Replay& replay);

/// Runs every layer of `model` forward (and, with `labels`, the loss and
/// every layer backward) on `input`, `reps` times, timing each layer call
/// as nn.<layer>.fwd / nn.<layer>.bwd and the loss as nn.loss. LeNet's
/// layers are named conv1, conv2, dense1, dense2, relu (the three ReLUs
/// together) and flatten.
void replay_layers(Replay& replay, models::Classifier& model,
                   const zkg::Tensor& input,
                   const std::vector<std::int64_t>* labels, int reps);

/// Metric names of the per-layer nn times, in report order.
const std::vector<std::string>& layer_metric_names();

/// GFLOP/s of the GEMMs that LeNet's conv and dense layers run for
/// `rows` images: forward matmul_nt always, and with `backward` the
/// matmul_tn weight gradients and matmul input gradients too. Total FLOPs
/// over the sum of each GEMM's median time.
double lenet_gemm_gflops(Replay& replay, models::Classifier& model,
                         std::int64_t rows, bool backward, const char* span);

/// im2col (and with `backward`, col2im) of both LeNet convolutions for
/// `rows` images, timed as tensor.im2col / tensor.col2im.
void replay_im2col(Replay& replay, models::Classifier& model,
                   std::int64_t rows, bool backward, int reps);

}  // namespace perf
