#include "replay.hpp"

#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "stats.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"

namespace perf {

using zkg::Tensor;

double Replay::span(const char* name, const std::function<void()>& fn) {
  return timed(spans_, name, fn) * 1e3;
}

double Replay::median_ms(const std::string& name) const {
  const auto it = ms_.find(name);
  if (it == ms_.end()) {
    throw std::logic_error("replay: '" + name + "' was never timed");
  }
  return percentile(it->second, 50.0);
}

double parallel_for_us(Replay& replay) {
  const auto team = static_cast<std::int64_t>(zkg::parallel_threads());
  constexpr int kCalls = 200;
  for (int block = 0; block < 30; ++block) {
    replay.time("common.parallel_for_x200", [&] {
      for (int i = 0; i < kCalls; ++i) {
        zkg::parallel_for(team, 1, [](std::int64_t, std::int64_t) {});
      }
    });
  }
  return replay.median_ms("common.parallel_for_x200") * 1e3 / kCalls;
}

namespace {

// Span names per LeNet layer; the bench preset has two convolutions and
// two dense layers. Anything else (Flatten) is timed as nn.other so the
// replayed step still covers it.
constexpr const char* kConvFwd[] = {"nn.conv1.fwd", "nn.conv2.fwd"};
constexpr const char* kConvBwd[] = {"nn.conv1.bwd", "nn.conv2.bwd"};
constexpr const char* kDenseFwd[] = {"nn.dense1.fwd", "nn.dense2.fwd"};
constexpr const char* kDenseBwd[] = {"nn.dense1.bwd", "nn.dense2.bwd"};

struct LayerNames {
  std::vector<const char*> fwd;
  std::vector<const char*> bwd;
  std::vector<bool> relu;
};

LayerNames name_layers(zkg::nn::Sequential& net) {
  LayerNames names;
  std::size_t convs = 0;
  std::size_t denses = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    zkg::nn::Module& layer = net.layer(i);
    const bool relu = dynamic_cast<zkg::nn::ReLU*>(&layer) != nullptr;
    names.relu.push_back(relu);
    if (dynamic_cast<zkg::nn::Conv2d*>(&layer) != nullptr && convs < 2) {
      names.fwd.push_back(kConvFwd[convs]);
      names.bwd.push_back(kConvBwd[convs++]);
    } else if (dynamic_cast<zkg::nn::Dense*>(&layer) != nullptr &&
               denses < 2) {
      names.fwd.push_back(kDenseFwd[denses]);
      names.bwd.push_back(kDenseBwd[denses++]);
    } else if (relu) {
      names.fwd.push_back("nn.relu.fwd");
      names.bwd.push_back("nn.relu.bwd");
    } else {
      names.fwd.push_back("nn.other.fwd");
      names.bwd.push_back("nn.other.bwd");
    }
  }
  return names;
}

struct ConvInput {
  zkg::nn::Conv2dConfig cfg;
  std::int64_t height, width;          // input
  std::int64_t out_height, out_width;  // output
};

/// The convolutions of `model` with the spatial size each one sees.
std::vector<ConvInput> conv_inputs(models::Classifier& model) {
  std::vector<ConvInput> convs;
  std::int64_t h = model.spec().height;
  std::int64_t w = model.spec().width;
  zkg::nn::Sequential& net = model.net();
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    if (auto* conv = dynamic_cast<zkg::nn::Conv2d*>(&net.layer(i))) {
      convs.push_back({conv->config(), h, w, conv->out_size(h),
                       conv->out_size(w)});
      h = conv->out_size(h);
      w = conv->out_size(w);
    }
  }
  return convs;
}

struct GemmShape {
  std::int64_t m, k, n;  // forward: [m, k] x [n, k]^T -> [m, n]
};

/// Forward GEMM shapes of the conv and dense layers for `rows` images.
std::vector<GemmShape> lenet_gemms(models::Classifier& model,
                                   std::int64_t rows) {
  std::vector<GemmShape> shapes;
  for (const ConvInput& c : conv_inputs(model)) {
    shapes.push_back({rows * c.out_height * c.out_width,
                      c.cfg.in_channels * c.cfg.kernel * c.cfg.kernel,
                      c.cfg.out_channels});
  }
  zkg::nn::Sequential& net = model.net();
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    if (auto* dense = dynamic_cast<zkg::nn::Dense*>(&net.layer(i))) {
      shapes.push_back({rows, dense->in_features(), dense->out_features()});
    }
  }
  return shapes;
}

}  // namespace

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "nn.conv1.fwd",  "nn.conv1.bwd",  "nn.conv2.fwd", "nn.conv2.bwd",
      "nn.dense1.fwd", "nn.dense1.bwd", "nn.dense2.fwd", "nn.dense2.bwd",
      "nn.relu.fwd",   "nn.relu.bwd",   "nn.loss"};
  return names;
}

void replay_layers(Replay& replay, models::Classifier& model,
                   const Tensor& input,
                   const std::vector<std::int64_t>* labels, int reps) {
  zkg::nn::Sequential& net = model.net();
  const LayerNames names = name_layers(net);
  const std::size_t n = net.num_layers();
  std::vector<Tensor> acts(n + 1);
  std::vector<Tensor> grads(n + 1);
  acts[0] = input;
  for (int r = 0; r < reps; ++r) {
    // The ReLUs are reported together: one figure per pass.
    double relu_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ms = replay.span(names.fwd[i], [&] {
        net.layer(i).forward_into(acts[i], acts[i + 1], /*training=*/true);
      });
      if (names.relu[i]) {
        relu_ms += ms;
      } else {
        replay.sample(names.fwd[i], ms);
      }
    }
    replay.sample("nn.relu.fwd", relu_ms);
    if (labels == nullptr) continue;

    replay.time("nn.loss", [&] {
      zkg::nn::softmax_cross_entropy_into(acts[n], *labels, grads[n]);
    });
    relu_ms = 0.0;
    for (std::size_t i = n; i-- > 0;) {
      const double ms = replay.span(names.bwd[i], [&] {
        net.layer(i).backward_into(grads[i + 1], grads[i]);
      });
      if (names.relu[i]) {
        relu_ms += ms;
      } else {
        replay.sample(names.bwd[i], ms);
      }
    }
    replay.sample("nn.relu.bwd", relu_ms);
    model.zero_grad();
  }
}

double lenet_gemm_gflops(Replay& replay, models::Classifier& model,
                         std::int64_t rows, bool backward, const char* span) {
  zkg::Rng rng(7);
  double flops = 0.0;
  double ms = 0.0;
  for (const GemmShape& g : lenet_gemms(model, rows)) {
    const Tensor a = zkg::rand_uniform({g.m, g.k}, rng, -1.0f, 1.0f);
    const Tensor wt = zkg::rand_uniform({g.n, g.k}, rng, -1.0f, 1.0f);
    const Tensor go = zkg::rand_uniform({g.m, g.n}, rng, -1.0f, 1.0f);
    Tensor c;
    std::vector<std::function<void()>> calls = {
        [&] { zkg::matmul_nt_into(c, a, wt); }};
    if (backward) {
      calls.push_back([&] { zkg::matmul_tn_into(c, go, a); });
      calls.push_back([&] { zkg::matmul_into(c, go, wt); });
    }
    for (const auto& call : calls) {
      call();  // warm-up: sizes c and fills the buffer pool
      std::vector<double> call_ms;
      for (int r = 0; r < 25; ++r) call_ms.push_back(replay.span(span, call));
      ms += percentile(call_ms, 50.0);
      flops += 2.0 * static_cast<double>(g.m) * static_cast<double>(g.k) *
               static_cast<double>(g.n);
    }
  }
  return flops / (ms * 1e-3) / 1e9;
}

void replay_im2col(Replay& replay, models::Classifier& model,
                   std::int64_t rows, bool backward, int reps) {
  zkg::Rng rng(11);
  const std::vector<ConvInput> convs = conv_inputs(model);
  std::vector<Tensor> inputs;
  std::vector<Tensor> cols(convs.size());
  std::vector<Tensor> images(convs.size());
  for (const ConvInput& c : convs) {
    inputs.push_back(zkg::rand_uniform(
        {rows, c.cfg.in_channels, c.height, c.width}, rng, -1.0f, 1.0f));
  }
  for (int r = 0; r < reps; ++r) {
    double im2col_ms = 0.0;
    double col2im_ms = 0.0;
    for (std::size_t i = 0; i < convs.size(); ++i) {
      im2col_ms += replay.span("tensor.im2col", [&] {
        zkg::nn::im2col_into(cols[i], inputs[i], convs[i].cfg);
      });
      if (!backward) continue;
      col2im_ms += replay.span("tensor.col2im", [&] {
        zkg::nn::col2im_into(images[i], cols[i], inputs[i].shape(),
                             convs[i].cfg);
      });
    }
    replay.sample("tensor.im2col", im2col_ms);
    if (backward) replay.sample("tensor.col2im", col2im_ms);
  }
}

}  // namespace perf
