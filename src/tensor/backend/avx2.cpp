// AVX2/FMA kernel backend.
//
// GEMM: a packed, register-blocked microkernel in the BLIS style. The
// driver walks cache blocks (NC columns x KC depth x MC rows), packs the
// current B panel into NR-wide column slabs and each A block into MR-tall
// row slabs (the B panel in pooled scratch from BufferPool, each worker's A
// panel in its persistent worker_scratch slot, both 64-byte aligned, so
// steady-state GEMM stays allocation-free), then runs a 6x16 register tile:
// 12 YMM accumulators fed by two aligned B loads and six A broadcasts per
// k step. Row blocks are distributed over zkg::parallel_for; every C
// element accumulates its k terms in one fixed order (kc blocks ascending,
// k ascending inside the microkernel), so results are bit-identical
// run-to-run regardless of thread count — only *across* backends do low
// bits differ from the scalar path (FMA contraction, different blocking).
//
// The three GEMM variants (NN, NT, TN) share one strided driver: packing
// absorbs the transposes, so no operand is ever materialised transposed.
//
// Elementwise/activation kernels are straightforward 8-lane loops chosen
// to match the scalar backend's arithmetic exactly (one rounding per
// element, no reassociation): add/sub/mul/div, axpy, the fused
// sign-ascent step, clamp and the ReLU family are bit-identical to
// scalar; matvec, softmax and GEMM agree within tolerance.
//
// This file is the only one allowed to touch <immintrin.h> outside
// tools/lint.py's simd-outside-backend allowlist. It compiles with
// -mavx2 -mfma in every build type; dispatch.cpp only selects the table
// when the running CPU reports AVX2+FMA.
#include "tensor/backend/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "tensor/backend/scalar_kernels.hpp"
#include "tensor/pool.hpp"

namespace zkg::backend {
namespace {

// Register block: 6 rows x 16 columns = 12 YMM accumulators, leaving
// registers for the two B vectors and the A broadcast.
constexpr std::int64_t kMR = 6;
constexpr std::int64_t kNR = 16;
// Cache blocks: a KC x NR B slab (16 KiB) stays in L1 across a row block;
// the packed MC x KC A block (96 KiB) sits in L2; the KC x NC B panel
// (1 MiB) streams from L3.
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kMC = 96;
constexpr std::int64_t kNC = 1024;

static_assert(kMC % kMR == 0, "A block must tile by the register rows");
static_assert(kNC % kNR == 0, "B panel must tile by the register columns");

/// Packs the A block rows [i0, i0+mc) x depth [kc, kc+kcnt) into MR-tall
/// slabs: slab s holds rows i0+s*MR.., laid out k-major (dst[kk*MR + r]),
/// zero-padded to MR so the microkernel never reads ragged rows. Element
/// A(i, kk) lives at a[i*ri + kk*rk] — strides absorb the TN transpose.
void pack_a(float* dst, const float* a, std::int64_t ri, std::int64_t rk,
            std::int64_t i0, std::int64_t mc, std::int64_t kc,
            std::int64_t kcnt) {
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t mr = std::min(kMR, mc - ir);
    float* slab = dst + ir * kcnt;
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const float* src = a + (kc + kk) * rk + (i0 + ir) * ri;
      for (std::int64_t r = 0; r < mr; ++r) slab[kk * kMR + r] = src[r * ri];
      for (std::int64_t r = mr; r < kMR; ++r) slab[kk * kMR + r] = 0.0f;
    }
  }
}

/// Packs the B panel depth [kc, kc+kcnt) x columns [jc, jc+nc) into
/// NR-wide slabs (dst[kk*NR + j]), zero-padded to NR. Element B(kk, j)
/// lives at b[kk*rk + j*cj] — strides absorb the NT transpose.
void pack_b(float* dst, const float* b, std::int64_t rk, std::int64_t cj,
            std::int64_t kc, std::int64_t kcnt, std::int64_t jc,
            std::int64_t nc) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t nr = std::min(kNR, nc - jr);
    float* slab = dst + jr * kcnt;
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const float* src = b + (kc + kk) * rk + (jc + jr) * cj;
      for (std::int64_t j = 0; j < nr; ++j) slab[kk * kNR + j] = src[j * cj];
      for (std::int64_t j = nr; j < kNR; ++j) slab[kk * kNR + j] = 0.0f;
    }
  }
}

/// The 6x16 register tile: C[0..6, 0..16) (+)= Aslab * Bslab over kcnt
/// depth steps. `ldc` is C's row stride; with accumulate=false the tile
/// overwrites C.
///
/// Inlining is pinned, because GCC's own choice flips with unrelated edits
/// to the driver. With the full tile inlined and the edge tile out of line,
/// the LeNet GEMMs ran as fast as or faster than with GCC's choice for the
/// current driver (M x K x N = 6272x16x200: 0.33 against 0.54-0.62 ms;
/// 128x784x64: 0.19 against 0.21 ms; two threads, 4-vCPU VM).
[[gnu::always_inline]] inline void micro_6x16(std::int64_t kcnt,
                                              const float* aslab,
                                              const float* bslab, float* c,
                                              std::int64_t ldc,
                                              bool accumulate) {
  __m256 acc[kMR][2];
  for (int r = 0; r < kMR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < kcnt; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bslab + kk * kNR);
    const __m256 b1 = _mm256_loadu_ps(bslab + kk * kNR + 8);
    for (int r = 0; r < kMR; ++r) {
      const __m256 av = _mm256_broadcast_ss(aslab + kk * kMR + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < kMR; ++r) {
    float* crow = c + r * ldc;
    if (accumulate) {
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_loadu_ps(crow));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_loadu_ps(crow + 8));
    }
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}

/// Edge tile (mr < MR and/or nr < NR): run the full microkernel into a
/// local tile (the packed slabs are zero-padded, so the extra lanes
/// compute zeros), then copy the valid mr x nr corner into C.
[[gnu::noinline]] void micro_edge(std::int64_t kcnt, const float* aslab,
                                  const float* bslab, float* c,
                                  std::int64_t ldc, std::int64_t mr,
                                  std::int64_t nr, bool accumulate) {
  alignas(32) float tile[kMR * kNR];
  micro_6x16(kcnt, aslab, bslab, tile, kNR, /*accumulate=*/false);
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * kNR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += trow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = trow[j];
    }
  }
}

/// Shared packed-GEMM driver: C[m,n] = A * B with A(i,kk) = a[i*ri+kk*rk]
/// and B(kk,j) = b[kk*rk2+j*cj]. C is dense row-major and fully
/// overwritten.
void gemm_strided(float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                  const float* a, std::int64_t a_ri, std::int64_t a_rk,
                  const float* b, std::int64_t b_rk, std::int64_t b_cj) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  BufferPool& pool = BufferPool::global();
  FloatBuffer bpanel = pool.acquire(static_cast<std::size_t>(kKC * kNC));
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t kc = 0; kc < k; kc += kKC) {
      const std::int64_t kcnt = std::min(kKC, k - kc);
      pack_b(bpanel.data(), b, b_rk, b_cj, kc, kcnt, jc, nc);
      const bool accumulate = kc > 0;
      const std::int64_t row_blocks = (m + kMC - 1) / kMC;
      // One row block costs 2*MC*kcnt*nc flops — far above any sane grain,
      // so parallelise at block granularity.
      parallel_for(row_blocks, 1, [&](std::int64_t blk0, std::int64_t blk1) {
        float* apanel = worker_scratch<float>(
            WorkerSlot::kGemmPanel, static_cast<std::size_t>(kMC * kKC));
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t i0 = blk * kMC;
          const std::int64_t mc = std::min(kMC, m - i0);
          pack_a(apanel, a, a_ri, a_rk, i0, mc, kc, kcnt);
          for (std::int64_t jr = 0; jr < nc; jr += kNR) {
            const std::int64_t nr = std::min(kNR, nc - jr);
            const float* bslab = bpanel.data() + jr * kcnt;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              const float* aslab = apanel + ir * kcnt;
              float* ctile = c + (i0 + ir) * n + (jc + jr);
              if (mr == kMR && nr == kNR) {
                micro_6x16(kcnt, aslab, bslab, ctile, n, accumulate);
              } else {
                micro_edge(kcnt, aslab, bslab, ctile, n, mr, nr, accumulate);
              }
            }
          }
        }
      });
    }
  }
  pool.release(std::move(bpanel));
}

void matmul(float* c, const float* a, const float* b, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  gemm_strided(c, m, k, n, a, /*a_ri=*/k, /*a_rk=*/1, b, /*b_rk=*/n,
               /*b_cj=*/1);
}

void matmul_nt(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // B arrives as [n, k]; packing reads it transposed.
  gemm_strided(c, m, k, n, a, /*a_ri=*/k, /*a_rk=*/1, b, /*b_rk=*/1,
               /*b_cj=*/k);
}

void matmul_tn(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // A arrives as [k, m]; packing reads it transposed.
  gemm_strided(c, m, k, n, a, /*a_ri=*/1, /*a_rk=*/m, b, /*b_rk=*/n,
               /*b_cj=*/1);
}

float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

void matvec(float* y, const float* a, const float* x, std::int64_t m,
            std::int64_t n) {
  parallel_for(m, parallel_grain(2 * n),
               [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * n;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      std::int64_t j = 0;
      for (; j + 32 <= n; j += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j),
                               _mm256_loadu_ps(x + j), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j + 8),
                               _mm256_loadu_ps(x + j + 8), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j + 16),
                               _mm256_loadu_ps(x + j + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j + 24),
                               _mm256_loadu_ps(x + j + 24), acc3);
      }
      for (; j + 8 <= n; j += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j),
                               _mm256_loadu_ps(x + j), acc0);
      }
      float total = hsum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                        _mm256_add_ps(acc2, acc3)));
      for (; j < n; ++j) total += arow[j] * x[j];
      y[i] = total;
    }
  });
}

void add_row_bias(float* a, const float* bias, std::int64_t m,
                  std::int64_t n) {
  parallel_for(m, parallel_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* arow = a + i * n;
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(arow + j,
                         _mm256_add_ps(_mm256_loadu_ps(arow + j),
                                       _mm256_loadu_ps(bias + j)));
      }
      for (; j < n; ++j) arow[j] += bias[j];
    }
  });
}

// ---- elementwise: same arithmetic as scalar (one rounding per element),
// so these are bit-identical across backends ----

void add(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}
void sub(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}
void mul(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}
void div(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_div_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] / b[i];
}
void add_scalar(float* out, const float* a, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) out[i] = a[i] + s;
}
void mul_scalar(float* out, const float* a, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}
void axpy(float* y, float alpha, const float* x, std::int64_t n) {
  // y + alpha*x with separate mul/add rounding, matching the scalar
  // backend bit-for-bit (fmadd would contract the rounding step).
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}
void add_scaled_sign(float* y, float alpha, const float* x, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 pos = _mm256_set1_ps(alpha);
  const __m256 neg = _mm256_set1_ps(-alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 gt = _mm256_cmp_ps(vx, zero, _CMP_GT_OQ);
    const __m256 lt = _mm256_cmp_ps(vx, zero, _CMP_LT_OQ);
    // alpha * sign(x) built by masking: +alpha where x>0, -alpha where
    // x<0, else 0 — exact, like the scalar form.
    const __m256 step = _mm256_or_ps(_mm256_and_ps(gt, pos),
                                     _mm256_and_ps(lt, neg));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), step));
  }
  for (; i < n; ++i) {
    const float s = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
    y[i] += alpha * s;
  }
}
void clamp(float* out, const float* a, float lo, float hi, std::int64_t n) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(a + i), vlo),
                                   vhi));
  }
  for (; i < n; ++i) out[i] = std::clamp(a[i], lo, hi);
}

void relu(float* out, const float* a, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void relu_backward(float* g, const float* in, const float* go,
                   std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_and_ps(mask, _mm256_loadu_ps(go + i)));
  }
  for (; i < n; ++i) g[i] = in[i] > 0.0f ? go[i] : 0.0f;
}
void leaky_relu(float* out, const float* a, float slope, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(a + i);
    const __m256 mask = _mm256_cmp_ps(vx, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(_mm256_mul_ps(vs, vx), vx, mask));
  }
  for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}
void leaky_relu_backward(float* g, const float* in, const float* go,
                         float slope, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vgo = _mm256_loadu_ps(go + i);
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    _mm256_storeu_ps(g + i,
                     _mm256_blendv_ps(_mm256_mul_ps(vs, vgo), vgo, mask));
  }
  for (; i < n; ++i) g[i] = in[i] > 0.0f ? go[i] : slope * go[i];
}

void softmax_rows(float* out, const float* logits, std::int64_t rows,
                  std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* lrow = logits + r * cols;
    float* orow = out + r * cols;
    // Vectorised stabiliser max; exp stays scalar (std::exp), the
    // normalising sum keeps the scalar backend's double accumulator.
    float row_peak = lrow[0];
    std::int64_t c = 0;
    if (cols >= 8) {
      __m256 peak = _mm256_loadu_ps(lrow);
      for (c = 8; c + 8 <= cols; c += 8) {
        peak = _mm256_max_ps(peak, _mm256_loadu_ps(lrow + c));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, peak);
      row_peak = lanes[0];
      for (int l = 1; l < 8; ++l) row_peak = std::max(row_peak, lanes[l]);
    } else {
      c = 1;
    }
    for (; c < cols; ++c) row_peak = std::max(row_peak, lrow[c]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(lrow[j] - row_peak);
      orow[j] = e;
      denom += e;
    }
    mul_scalar(orow, orow, static_cast<float>(1.0 / denom), cols);
  }
}

}  // namespace

bool cpu_supports_avx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const KernelBackend* avx2_backend_if_supported() {
  if (!cpu_supports_avx2()) return nullptr;
  static const KernelBackend table = {
      /*name=*/"avx2",
      /*simd=*/true,
      matmul,
      matmul_nt,
      matmul_tn,
      matvec,
      // Transpose and column-sum gain nothing from hand vectorisation
      // (both are load/store bound); share the scalar blocked kernels.
      scalar::transpose2d,
      scalar::col_sum,
      add_row_bias,
      add,
      sub,
      mul,
      div,
      add_scalar,
      mul_scalar,
      axpy,
      add_scaled_sign,
      clamp,
      relu,
      relu_backward,
      leaky_relu,
      leaky_relu_backward,
      softmax_rows,
  };
  return &table;
}

}  // namespace zkg::backend

#else  // no AVX2/FMA at compile time (non-x86 target): scalar-only build

namespace zkg::backend {

bool cpu_supports_avx2() { return false; }
const KernelBackend* avx2_backend_if_supported() { return nullptr; }

}  // namespace zkg::backend

#endif
