// Layer tests: forward values on handcrafted cases plus numerical gradient
// checks for every layer (both input gradients and parameter gradients).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tests/test_util.hpp"

namespace zkg::nn {
namespace {

using testutil::expect_close;
using testutil::numerical_gradient;

// Checks d(sum(layer(x)))/dx against central differences, and (when the
// layer has parameters) d(sum)/d(param) too.
void check_layer_gradients(Module& layer, const Tensor& input,
                           float rtol = 2e-2f, float atol = 2e-3f) {
  // Input gradient. sum(output) has gradient of all-ones w.r.t. output.
  Tensor output = layer.forward(input, /*training=*/false);
  layer.zero_grad();
  const Tensor analytic = layer.backward(Tensor(output.shape(), 1.0f));
  const Tensor numeric = numerical_gradient(
      [&layer](const Tensor& x) {
        return sum(layer.forward(x, /*training=*/false));
      },
      input);
  // Re-establish the forward cache for the parameter pass below.
  layer.forward(input, /*training=*/false);
  expect_close(analytic, numeric, rtol, atol);

  for (Parameter* param : layer.parameters()) {
    layer.zero_grad();
    layer.forward(input, false);
    layer.backward(Tensor(output.shape(), 1.0f));
    const Tensor analytic_param = param->grad();
    const Tensor numeric_param = numerical_gradient(
        [&layer, &input, param](const Tensor& w) {
          const Tensor saved = param->value();
          param->value() = w;
          const float value = sum(layer.forward(input, false));
          param->value() = saved;
          return value;
        },
        param->value());
    expect_close(analytic_param, numeric_param, rtol, atol);
  }
}

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  Dense dense(2, 2, rng);
  dense.weight().value() = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  dense.bias().value() = Tensor({2}, std::vector<float>{10, 20});
  const Tensor x({1, 2}, std::vector<float>{1, 1});
  const Tensor y = dense.forward(x, false);
  // y = x W^T + b = [1+2, 3+4] + [10, 20].
  EXPECT_TRUE(y.equals(Tensor({1, 2}, std::vector<float>{13, 27})));
}

TEST(Dense, GradientCheck) {
  Rng rng(2);
  Dense dense(4, 3, rng);
  const Tensor x = randn({5, 4}, rng);
  check_layer_gradients(dense, x);
}

TEST(Dense, RejectsWrongWidth) {
  Rng rng(3);
  Dense dense(4, 3, rng);
  EXPECT_THROW(dense.forward(Tensor({2, 5}), false), InvalidArgument);
  EXPECT_THROW(Dense(0, 3, rng), InvalidArgument);
}

TEST(Conv2d, OutputShape) {
  Rng rng(4);
  Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3, .stride = 2,
               .padding = 1},
              rng);
  const Tensor x = randn({2, 3, 9, 9}, rng);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 8, 5, 5}));
  EXPECT_EQ(conv.out_size(9), 5);
}

TEST(Conv2d, MatchesDirectConvolution) {
  // 1x1 batch, no padding: compare against a hand-rolled convolution.
  Rng rng(5);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .kernel = 2, .stride = 1,
               .padding = 0},
              rng);
  conv.bias().value().fill(0.25f);
  const Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x, false);
  const Tensor& w = conv.weight().value();  // [1, 4] = k00 k01 k10 k11
  for (std::int64_t oy = 0; oy < 2; ++oy) {
    for (std::int64_t ox = 0; ox < 2; ++ox) {
      const float expected = w[0] * x.at(0, 0, oy, ox) +
                             w[1] * x.at(0, 0, oy, ox + 1) +
                             w[2] * x.at(0, 0, oy + 1, ox) +
                             w[3] * x.at(0, 0, oy + 1, ox + 1) + 0.25f;
      EXPECT_NEAR(y.at(0, 0, oy, ox), expected, 1e-5f);
    }
  }
}

TEST(Conv2d, GradientCheck) {
  Rng rng(6);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 2,
               .padding = 1},
              rng);
  const Tensor x = randn({2, 2, 5, 5}, rng);
  check_layer_gradients(conv, x);
}

TEST(Im2Col, RoundTripThroughCol2ImCountsOverlaps) {
  const Conv2dConfig cfg{.in_channels = 1, .out_channels = 1, .kernel = 2,
                         .stride = 1, .padding = 0};
  const Tensor x({1, 1, 3, 3}, 1.0f);
  const Tensor cols = im2col(x, cfg);
  EXPECT_EQ(cols.shape(), Shape({4, 4}));
  const Tensor back = col2im(cols, x.shape(), cfg);
  // Centre pixel participates in all four patches, corners in one.
  EXPECT_FLOAT_EQ(back.at(0, 0, 1, 1), 4.0f);
  EXPECT_FLOAT_EQ(back.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(back.at(0, 0, 0, 1), 2.0f);
}

// Reference lowering: bounds-checked loops that test every tap of every
// patch against the image edge instead of reading a padded plane.
Tensor reference_im2col(const Tensor& input, const Conv2dConfig& cfg) {
  const std::int64_t b = input.dim(0), c = input.dim(1);
  const std::int64_t h = input.dim(2), w = input.dim(3);
  const std::int64_t k = cfg.kernel, s = cfg.stride, p = cfg.padding;
  const std::int64_t oh = (h + 2 * p - k) / s + 1;
  const std::int64_t ow = (w + 2 * p - k) / s + 1;
  const std::int64_t patch = c * k * k;
  Tensor cols({b * oh * ow, patch});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float* row = cols.data() + ((bi * oh + oy) * ow + ox) * patch;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t y = oy * s - p + ky;
              const std::int64_t x = ox * s - p + kx;
              const bool inside = y >= 0 && y < h && x >= 0 && x < w;
              row[(ci * k + ky) * k + kx] =
                  inside ? input.at(bi, ci, y, x) : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor reference_col2im(const Tensor& cols, const Shape& shape,
                        const Conv2dConfig& cfg) {
  const std::int64_t b = shape[0], c = shape[1], h = shape[2], w = shape[3];
  const std::int64_t k = cfg.kernel, s = cfg.stride, p = cfg.padding;
  const std::int64_t oh = (h + 2 * p - k) / s + 1;
  const std::int64_t ow = (w + 2 * p - k) / s + 1;
  const std::int64_t patch = c * k * k;
  Tensor image(shape, 0.0f);
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float* row = cols.data() + ((bi * oh + oy) * ow + ox) * patch;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t y = oy * s - p + ky;
              const std::int64_t x = ox * s - p + kx;
              if (y < 0 || y >= h || x < 0 || x >= w) continue;
              image.at(bi, ci, y, x) += row[(ci * k + ky) * k + kx];
            }
          }
        }
      }
    }
  }
  return image;
}

void expect_bitwise_equal(const Tensor& actual, const Tensor& expected,
                          const std::string& what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        static_cast<std::size_t>(actual.numel()) *
                            sizeof(float)),
            0)
      << what;
}

double dot(const Tensor& a, const Tensor& b, double* magnitude) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double term = static_cast<double>(a[i]) * static_cast<double>(b[i]);
    sum += term;
    *magnitude += std::abs(term);
  }
  return sum;
}

TEST(Im2Col, FuzzMatchesBoundsCheckedReferenceBitwise) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t k = rng.randint(1, 5);
    const Conv2dConfig cfg{.in_channels = rng.randint(1, 6),
                           .out_channels = 1,
                           .kernel = k,
                           .stride = rng.randint(1, 3),
                           .padding = rng.randint(0, k - 1)};
    const std::int64_t b = trial % 4 == 0 ? 1 : rng.randint(2, 5);
    const std::int64_t min_side =
        std::max<std::int64_t>(1, k - 2 * cfg.padding);
    const std::int64_t h = rng.randint(min_side, 20);
    std::int64_t w = rng.randint(min_side, 20);
    if (w == h) w = h + 1;
    const Shape shape{b, cfg.in_channels, h, w};
    const std::string what =
        "trial " + std::to_string(trial) + ": " + shape_to_string(shape) +
        " k=" + std::to_string(k) + " s=" + std::to_string(cfg.stride) +
        " p=" + std::to_string(cfg.padding);

    const Tensor x = randn(shape, rng);
    const Tensor expected_cols = reference_im2col(x, cfg);
    Tensor cols;
    {
      const SerialScope serial;
      im2col_into(cols, x, cfg);
    }
    expect_bitwise_equal(cols, expected_cols, "serial im2col, " + what);
    im2col_into(cols, x, cfg);
    expect_bitwise_equal(cols, expected_cols, "parallel im2col, " + what);

    const Tensor y = randn(expected_cols.shape(), rng);
    const Tensor expected_image = reference_col2im(y, shape, cfg);
    Tensor image;
    {
      const SerialScope serial;
      col2im_into(image, y, shape, cfg);
    }
    expect_bitwise_equal(image, expected_image, "serial col2im, " + what);
    col2im_into(image, y, shape, cfg);
    expect_bitwise_equal(image, expected_image, "parallel col2im, " + what);

    // col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
    double magnitude = 0.0;
    const double lhs = dot(cols, y, &magnitude);
    const double rhs = dot(x, image, &magnitude);
    EXPECT_NEAR(lhs, rhs, 1e-5 * magnitude + 1e-6) << "adjoint, " << what;
  }
}

TEST(MaxPool2d, ForwardAndRouting) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 4},
                 std::vector<float>{1, 5, 2, 0, 3, 4, 6, 7});
  const Tensor y = pool.forward(x, false);
  EXPECT_TRUE(y.equals(Tensor({1, 1, 1, 2}, std::vector<float>{5, 7})));
  // Gradient routes only to the argmax cells.
  const Tensor g = pool.backward(Tensor({1, 1, 1, 2}, std::vector<float>{1, 2}));
  EXPECT_FLOAT_EQ(g.at(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.at(0, 0, 1, 3), 2.0f);
  EXPECT_FLOAT_EQ(sum(g), 3.0f);
}

TEST(MaxPool2d, GradientCheck) {
  Rng rng(7);
  MaxPool2d pool(2);
  const Tensor x = randn({2, 3, 4, 4}, rng);
  check_layer_gradients(pool, x);
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool pool;
  const Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = pool.forward(x, false);
  EXPECT_TRUE(y.allclose(Tensor({1, 2}, std::vector<float>{2.5f, 10.0f})));
  Rng rng(8);
  const Tensor probe = randn({2, 3, 3, 3}, rng);
  check_layer_gradients(pool, probe);
}

TEST(Activations, ReLUForward) {
  ReLU relu;
  const Tensor x({3}, std::vector<float>{-1, 0, 2});
  EXPECT_TRUE(relu.forward(x, false).equals(
      Tensor({3}, std::vector<float>{0, 0, 2})));
}

TEST(Activations, GradientChecks) {
  Rng rng(9);
  // Probe away from the ReLU kink so central differences are valid.
  Tensor x = randn({4, 6}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.1f;
  }
  ReLU relu;
  check_layer_gradients(relu, x);
  LeakyReLU leaky(0.1f);
  check_layer_gradients(leaky, x);
  Sigmoid sigmoid;
  check_layer_gradients(sigmoid, x);
  Tanh tanh_layer;
  check_layer_gradients(tanh_layer, x);
}

TEST(Activations, SigmoidRange) {
  Sigmoid sigmoid;
  Rng rng(10);
  const Tensor y = sigmoid.forward(randn({100}, rng, 0.0f, 5.0f), false);
  EXPECT_GT(min_value(y), 0.0f);
  EXPECT_LT(max_value(y), 1.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  Rng rng(11);
  const Tensor x = randn({2, 3, 4, 5}, rng);
  const Tensor y = flatten.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor g = flatten.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_TRUE(g.equals(x));
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(12);
  Dropout dropout(0.5f, rng);
  const Tensor x = randn({4, 4}, rng);
  EXPECT_TRUE(dropout.forward(x, /*training=*/false).equals(x));
  EXPECT_TRUE(dropout.backward(x).equals(x));
}

TEST(Dropout, TrainingDropsAndRescales) {
  Rng rng(13);
  Dropout dropout(0.25f, rng);
  const Tensor x({10000}, 1.0f);
  const Tensor y = dropout.forward(x, /*training=*/true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 1.0f / 0.75f, 1e-5f);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.25, 0.02);
  // Backward applies the same mask.
  const Tensor g = dropout.backward(x);
  EXPECT_TRUE(g.equals(y));
}

TEST(Dropout, ZeroRateIsIdentityEvenInTraining) {
  Rng rng(14);
  Dropout dropout(0.0f, rng);
  const Tensor x = randn({8}, rng);
  EXPECT_TRUE(dropout.forward(x, true).equals(x));
  EXPECT_THROW(Dropout(1.0f, rng), InvalidArgument);
}

TEST(Sequential, ChainsForwardAndBackward) {
  Rng rng(15);
  Sequential net;
  net.emplace<Dense>(6, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(4, 2, rng);
  const Tensor x = randn({3, 6}, rng);
  check_layer_gradients(net, x);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.num_parameters(), 6 * 4 + 4 + 4 * 2 + 2);
}

TEST(Sequential, SummaryListsLayers) {
  Rng rng(16);
  Sequential net;
  net.emplace<Dense>(2, 2, rng);
  const std::string summary = net.summary();
  EXPECT_NE(summary.find("Dense(2 -> 2)"), std::string::npos);
  EXPECT_NE(summary.find("parameters: 6"), std::string::npos);
}

TEST(Sequential, StateRoundTrip) {
  Rng rng(17);
  Sequential a;
  a.emplace<Dense>(3, 3, rng);
  Sequential b;
  b.emplace<Dense>(3, 3, rng);
  const Tensor x = randn({2, 3}, rng);
  ASSERT_FALSE(a.forward(x, false).allclose(b.forward(x, false)));
  b.load_state(a.state());
  EXPECT_TRUE(a.forward(x, false).allclose(b.forward(x, false)));
  // Mismatched state is rejected.
  Sequential c;
  c.emplace<Dense>(2, 2, rng);
  EXPECT_THROW(c.load_state(a.state()), InvalidArgument);
}

TEST(Sequential, EmptyNetworkRejected) {
  Sequential net;
  EXPECT_THROW(net.forward(Tensor({1, 1}), false), InvalidArgument);
}

TEST(Parameter, ZeroAndAccumulate) {
  Parameter p("w", Tensor({2}, std::vector<float>{1, 2}));
  EXPECT_EQ(p.numel(), 2);
  p.accumulate_grad(Tensor({2}, std::vector<float>{3, 4}));
  p.accumulate_grad(Tensor({2}, std::vector<float>{1, 1}));
  EXPECT_TRUE(p.grad().equals(Tensor({2}, std::vector<float>{4, 5})));
  p.zero_grad();
  EXPECT_TRUE(p.grad().equals(Tensor({2})));
}

}  // namespace
}  // namespace zkg::nn
