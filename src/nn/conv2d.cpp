#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/parallel.hpp"
#include "nn/init.hpp"
#include "tensor/contracts.hpp"
#include "tensor/linalg.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {
namespace {

std::int64_t conv_out_size(std::int64_t in, const Conv2dConfig& cfg) {
  const std::int64_t padded = in + 2 * cfg.padding;
  ZKG_REQUIRE(padded >= cfg.kernel)
      << " conv input " << in << " smaller than kernel " << cfg.kernel;
  return (padded - cfg.kernel) / cfg.stride + 1;
}

void check_config(const Conv2dConfig& cfg) {
  ZKG_REQUIRE(cfg.in_channels > 0 && cfg.out_channels > 0 && cfg.kernel > 0 &&
              cfg.stride > 0 && cfg.padding >= 0)
      << " bad Conv2dConfig(c_in=" << cfg.in_channels
      << ", c_out=" << cfg.out_channels << ", k=" << cfg.kernel
      << ", s=" << cfg.stride << ", p=" << cfg.padding << ")";
}

// Geometry of one lowering. The padded plane holds one image's C channels
// of HP x WP = (H+2P) x (W+2P) floats with the image in the interior and
// zeros around it; every patch of that image lies inside it, because the
// last patch ends at (OH-1)*S+K <= H+2P.
struct Lowering {
  Lowering(const Shape& shape, const Conv2dConfig& cfg)
      : b(shape[0]),
        c(shape[1]),
        h(shape[2]),
        w(shape[3]),
        oh(conv_out_size(h, cfg)),
        ow(conv_out_size(w, cfg)),
        k(cfg.kernel),
        s(cfg.stride),
        p(cfg.padding),
        hp(h + 2 * p),
        wp(w + 2 * p),
        patch(c * k * k) {
    ZKG_REQUIRE(c * hp * wp <= std::numeric_limits<std::int32_t>::max())
        << " conv input plane of " << c << "x" << hp << "x" << wp
        << " floats is too large to index";
  }

  std::size_t plane_size() const {
    return static_cast<std::size_t>(c * hp * wp);
  }

  // Offset in the padded plane of each tap (ci, ky, kx) of a patch, in the
  // patch's column order, relative to the patch's top-left corner.
  void fill_taps(std::int32_t* taps) const {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t ky = 0; ky < k; ++ky) {
        for (std::int64_t kx = 0; kx < k; ++kx) {
          *taps++ = static_cast<std::int32_t>((ci * hp + ky) * wp + kx);
        }
      }
    }
  }

  // Fills padded rows [py0, py1) of every channel of `plane` from `image`
  // ([C, H, W]): interior pixels are copied, padding cells zeroed.
  void pad_rows(float* plane, const float* image, std::int64_t py0,
                std::int64_t py1) const {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t py = py0; py < py1; ++py) {
        float* dst = plane + (ci * hp + py) * wp;
        const std::int64_t y = py - p;
        if (y < 0 || y >= h) {
          std::fill_n(dst, wp, 0.0f);
          continue;
        }
        std::fill_n(dst, p, 0.0f);
        std::copy_n(image + (ci * h + y) * w, w, dst + p);
        std::fill_n(dst + p + w, p, 0.0f);
      }
    }
  }

  std::int64_t b, c, h, w, oh, ow, k, s, p, hp, wp, patch;
};

}  // namespace

void im2col_into(Tensor& cols, const Tensor& input, const Conv2dConfig& cfg) {
  check_config(cfg);
  ZKG_REQUIRE(input.ndim() == 4 && input.dim(1) == cfg.in_channels)
      << " im2col expects [B, " << cfg.in_channels << ", H, W], got "
      << shape_to_string(input.shape());
  const Lowering g(input.shape(), cfg);
  ZKG_REQUIRE_NOT_ALIASED(cols, input, "im2col_into");
  ensure_shape(cols, {g.b * g.oh * g.ow, g.patch});
  const float* in = input.data();
  float* out = cols.data();
  // Each (bi, oy) output row strip is independent; flattening over b*oh
  // scales past tiny batch sizes. A chunk pads only the plane rows its
  // strips of one image read, then gathers every patch without a branch.
  parallel_for(g.b * g.oh, parallel_grain(g.ow * g.patch),
               [&](std::int64_t r0, std::int64_t r1) {
    float* plane =
        worker_scratch<float>(WorkerSlot::kConvPlane, g.plane_size());
    std::int32_t* taps = worker_scratch<std::int32_t>(
        WorkerSlot::kConvTaps, static_cast<std::size_t>(g.patch));
    g.fill_taps(taps);
    for (std::int64_t r = r0; r < r1;) {
      const std::int64_t bi = r / g.oh;
      const std::int64_t oy0 = r % g.oh;
      const std::int64_t oy1 = std::min(g.oh, oy0 + (r1 - r));
      g.pad_rows(plane, in + bi * g.c * g.h * g.w, oy0 * g.s,
                 (oy1 - 1) * g.s + g.k);
      for (std::int64_t oy = oy0; oy < oy1; ++oy) {
        for (std::int64_t ox = 0; ox < g.ow; ++ox) {
          float* row = out + ((bi * g.oh + oy) * g.ow + ox) * g.patch;
          const float* base = plane + oy * g.s * g.wp + ox * g.s;
          for (std::int64_t t = 0; t < g.patch; ++t) row[t] = base[taps[t]];
        }
      }
      r += oy1 - oy0;
    }
  });
}

Tensor im2col(const Tensor& input, const Conv2dConfig& cfg) {
  Tensor cols;
  im2col_into(cols, input, cfg);
  return cols;
}

void col2im_into(Tensor& image, const Tensor& cols, const Shape& input_shape,
                 const Conv2dConfig& cfg) {
  check_config(cfg);
  ZKG_REQUIRE(input_shape.size() == 4)
      << " col2im wants a rank-4 input shape";
  const Lowering g(input_shape, cfg);
  ZKG_REQUIRE(cols.ndim() == 2 && cols.dim(0) == g.b * g.oh * g.ow &&
              cols.dim(1) == g.patch)
      << " col2im cols shape " << shape_to_string(cols.shape());

  ZKG_REQUIRE_NOT_ALIASED(image, cols, "col2im_into");
  ensure_shape(image, input_shape);
  const float* in = cols.data();
  float* out = image.data();
  // Patches overlap, so the scatter accumulates; parallelism stays over the
  // batch dimension only, which keeps writes disjoint. Each image
  // accumulates into a zeroed padded plane in the same (oy, ox, ci, ky, kx)
  // order as a bounds-checked scatter into the image would, so every pixel
  // sums the same terms in the same order; taps that land in the padding
  // are dropped with it when the interior is copied out.
  parallel_for(g.b, parallel_grain(g.oh * g.ow * g.patch),
               [&](std::int64_t b0, std::int64_t b1) {
    float* plane =
        worker_scratch<float>(WorkerSlot::kConvPlane, g.plane_size());
    std::int32_t* taps = worker_scratch<std::int32_t>(
        WorkerSlot::kConvTaps, static_cast<std::size_t>(g.patch));
    g.fill_taps(taps);
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      std::fill_n(plane, g.plane_size(), 0.0f);
      for (std::int64_t oy = 0; oy < g.oh; ++oy) {
        for (std::int64_t ox = 0; ox < g.ow; ++ox) {
          const float* row = in + ((bi * g.oh + oy) * g.ow + ox) * g.patch;
          float* base = plane + oy * g.s * g.wp + ox * g.s;
          for (std::int64_t t = 0; t < g.patch; ++t) base[taps[t]] += row[t];
        }
      }
      float* img = out + bi * g.c * g.h * g.w;
      for (std::int64_t ci = 0; ci < g.c; ++ci) {
        for (std::int64_t y = 0; y < g.h; ++y) {
          const float* src = plane + (ci * g.hp + y + g.p) * g.wp + g.p;
          std::copy_n(src, g.w, img + (ci * g.h + y) * g.w);
        }
      }
    }
  });
}

Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const Conv2dConfig& cfg) {
  Tensor image;
  col2im_into(image, cols, input_shape, cfg);
  return image;
}

Conv2d::Conv2d(Conv2dConfig cfg, Rng& rng)
    : cfg_(cfg),
      weight_("conv.weight",
              he_normal({cfg.out_channels,
                         cfg.in_channels * cfg.kernel * cfg.kernel},
                        cfg.in_channels * cfg.kernel * cfg.kernel, rng)),
      bias_("conv.bias", Tensor({cfg.out_channels})) {
  check_config(cfg_);
}

std::int64_t Conv2d::out_size(std::int64_t in) const {
  return conv_out_size(in, cfg_);
}

void Conv2d::forward_into(const Tensor& input, Tensor& out,
                          bool /*training*/) {
  const std::int64_t b = input.dim(0);
  const std::int64_t oh = conv_out_size(input.dim(2), cfg_);
  const std::int64_t ow = conv_out_size(input.dim(3), cfg_);
  cached_input_shape_ = input.shape();
  im2col_into(cached_cols_, input, cfg_);

  // [B*OH*OW, patch] x [OC, patch]^T -> [B*OH*OW, OC]
  matmul_nt_into(flat_, cached_cols_, weight_.value());

  // Reorder [B*OH*OW, OC] -> [B, OC, OH, OW] and add the bias on the way
  // (one rounding per element, as a separate bias pass would); batch images
  // are disjoint.
  ensure_shape(out, {b, cfg_.out_channels, oh, ow});
  const std::int64_t spatial = oh * ow;
  ZKG_REQUIRE_SHAPE(bias_.value(), Shape({cfg_.out_channels}), "Conv2d bias");
  const float* src = flat_.data();
  const float* bias = bias_.value().data();
  float* dst = out.data();
  parallel_for(b, parallel_grain(spatial * cfg_.out_channels),
               [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float* row = src + (bi * spatial + s) * cfg_.out_channels;
        for (std::int64_t oc = 0; oc < cfg_.out_channels; ++oc) {
          dst[(bi * cfg_.out_channels + oc) * spatial + s] =
              row[oc] + bias[oc];
        }
      }
    }
  });
}

void Conv2d::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  ZKG_REQUIRE(!cached_cols_.empty()) << " Conv2d backward before forward";
  const std::int64_t b = cached_input_shape_[0];
  const std::int64_t oh = conv_out_size(cached_input_shape_[2], cfg_);
  const std::int64_t ow = conv_out_size(cached_input_shape_[3], cfg_);
  ZKG_REQUIRE_SHAPE(grad_output, Shape({b, cfg_.out_channels, oh, ow}),
                    "Conv2d backward");

  // Reorder [B, OC, OH, OW] -> [B*OH*OW, OC]; batch images are disjoint.
  const std::int64_t spatial = oh * ow;
  ensure_shape(grad_flat_, {b * spatial, cfg_.out_channels});
  const float* src = grad_output.data();
  float* dst = grad_flat_.data();
  parallel_for(b, parallel_grain(spatial * cfg_.out_channels),
               [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      for (std::int64_t oc = 0; oc < cfg_.out_channels; ++oc) {
        const float* plane = src + (bi * cfg_.out_channels + oc) * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) {
          dst[(bi * spatial + s) * cfg_.out_channels + oc] = plane[s];
        }
      }
    }
  });

  matmul_tn_into(grad_w_scratch_, grad_flat_, cached_cols_);
  weight_.accumulate_grad(grad_w_scratch_);
  col_sum_into(grad_b_scratch_, grad_flat_);
  bias_.accumulate_grad(grad_b_scratch_);

  matmul_into(grad_cols_, grad_flat_, weight_.value());
  col2im_into(grad_input, grad_cols_, cached_input_shape_, cfg_);
}

std::string Conv2d::name() const {
  std::ostringstream out;
  out << "Conv2d(" << cfg_.in_channels << " -> " << cfg_.out_channels
      << ", k=" << cfg_.kernel << ", s=" << cfg_.stride
      << ", p=" << cfg_.padding << ")";
  return out.str();
}

}  // namespace zkg::nn
