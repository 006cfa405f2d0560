// Bitwise parity of the fast leaf kernels against the straightforward
// loops they replace. conv_reference_test.cpp checks the convolutions
// within a tolerance; these tests compare memcmp-exact, because the
// search ranks candidates by scores that must not move by one bit when
// a kernel gets faster:
//  - depthwise conv (eight planes at a time, interleaved) against the
//    tap-skipping loop, with plain, bias and fused BN+act epilogues, at
//    every output width 1–16, with plane counts that leave a partial
//    block, and with a NaN weight;
//  - the direct 1×1 conv against the sample-batched im2col + GEMM
//    product it bypasses, and against a per-sample tensor::im2col +
//    tensor::gemm, with and without the fused epilogue;
//  - ReLU output and mask, and h-swish forward and backward, on signed
//    zeros, NaN, infinities, denormals and the h-swish knees;
//  - BatchNorm batch statistics, running statistics, output and
//    backward, and global average pooling, against their one-channel
//    (one-plane) serial sums. Their inputs hold large ±pairs that cancel
//    within a channel, so the sums are not exact and any change in the
//    order of their adds shows in the bits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/rng.h"

namespace hsconas::nn {
namespace {

using tensor::EpilogueAct;
using tensor::Tensor;

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// The depthwise loop the kernels replace: per output, skip every tap
/// that falls outside the plane and sum the rest in (ky, kx) order.
Tensor depthwise_reference(const Tensor& x, const Tensor& weight, long stride,
                           long pad, const float* scale, const float* shift,
                           EpilogueAct act, bool epilogue) {
  const long n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long k = weight.dim(2);
  const long oh = (h + 2 * pad - k) / stride + 1;
  const long ow = (w + 2 * pad - k) / stride + 1;
  Tensor y({n, c, oh, ow});
  for (long s = 0; s < n; ++s) {
    for (long ch = 0; ch < c; ++ch) {
      const float* img = x.data() + (s * c + ch) * h * w;
      const float* wk = weight.data() + ch * k * k;
      float* out = y.data() + (s * c + ch) * oh * ow;
      const float es = scale != nullptr ? scale[ch] : 1.0f;
      const float et = shift != nullptr ? shift[ch] : 0.0f;
      for (long oy = 0; oy < oh; ++oy) {
        for (long ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (long ky = 0; ky < k; ++ky) {
            const long iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (long kx = 0; kx < k; ++kx) {
              const long ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc += wk[ky * k + kx] * img[iy * w + ix];
            }
          }
          out[oy * ow + ox] =
              epilogue ? tensor::epilogue_apply(
                             act, tensor::epilogue_affine(es, acc, et))
                       : acc;
        }
      }
    }
  }
  return y;
}

/// Uniform NCHW input with exact +0 and −0 sprinkled in, so padding taps
/// meet signed-zero products both inside and at the edge of the plane.
/// The first plane holds only alternating ±0: its outputs are sums of
/// zeros, where anything a padding tap adds would show.
Tensor signed_zero_input(std::initializer_list<long> shape, util::Rng& rng) {
  Tensor x = Tensor::uniform(shape, -1.0f, 1.0f, rng);
  float* d = x.data();
  for (long i = 0; i < x.numel(); i += 5) d[i] = 0.0f;
  for (long i = 2; i < x.numel(); i += 7) d[i] = -0.0f;
  for (long i = 0; i < x.dim(2) * x.dim(3); ++i) {
    d[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  return x;
}

TEST(DepthwiseParity, BitIdenticalToTapSkippingLoop) {
  int checked = 0;
  for (long k : {3L, 5L, 7L}) {
    for (long stride : {1L, 2L}) {
      for (long hw = 3; hw <= 16; ++hw) {
        const long pad = k / 2;
        util::Rng rng(static_cast<std::uint64_t>(1000 * k + 100 * stride + hw));
        const long ch = 3;
        Conv2d conv(ch, ch, k, stride, pad, ch, /*bias=*/false, rng);
        const Tensor x = signed_zero_input({2, ch, hw, hw}, rng);
        const Tensor want =
            depthwise_reference(x, conv.weight().value, stride, pad, nullptr,
                                nullptr, EpilogueAct::kNone, false);
        EXPECT_TRUE(bit_equal(conv.forward(x), want))
            << "k=" << k << " s=" << stride << " in=" << hw << "x" << hw;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3 * 2 * 14);
}

TEST(DepthwiseParity, SmallStrideTwoPlaneWithK7) {
  // The proxy space's k=7, s=2 conv on a 6×6 input: a 3×3 output in which
  // no window lies fully inside the plane.
  util::Rng rng(67);
  Conv2d conv(32, 32, 7, 2, 3, 32, /*bias=*/false, rng);
  const Tensor x = signed_zero_input({4, 32, 6, 6}, rng);
  const Tensor want = depthwise_reference(x, conv.weight().value, 2, 3,
                                          nullptr, nullptr,
                                          EpilogueAct::kNone, false);
  EXPECT_TRUE(bit_equal(conv.forward(x), want));
}

TEST(DepthwiseParity, NonFiniteWeightStaysInsideItsWindows) {
  // Every output adds only its in-range taps, so a NaN weight at tap
  // (0, 0) reaches exactly the outputs whose window has that tap inside
  // the plane, as in the tap-skipping loop: the top row and the left
  // column stay finite, at any plane width.
  for (long hw : {12L, 6L}) {
    util::Rng rng(static_cast<std::uint64_t>(71 + hw));
    Conv2d conv(2, 2, 3, 1, 1, 2, /*bias=*/false, rng);
    conv.weight().value.data()[0] = std::numeric_limits<float>::quiet_NaN();
    const Tensor x = Tensor::uniform({1, 2, hw, hw}, -1.0f, 1.0f, rng);
    const Tensor want = depthwise_reference(x, conv.weight().value, 1, 1,
                                            nullptr, nullptr,
                                            EpilogueAct::kNone, false);
    const Tensor got = conv.forward(x);
    EXPECT_TRUE(bit_equal(got, want)) << "in=" << hw;
    for (long oy = 0; oy < hw; ++oy) {
      for (long ox = 0; ox < hw; ++ox) {
        EXPECT_EQ(std::isnan(got.data()[oy * hw + ox]), oy > 0 && ox > 0)
            << "in=" << hw << " at " << oy << "," << ox;
      }
    }
  }
}

TEST(DepthwiseParity, NarrowOutputsWithPartialPlaneBlocks) {
  // Output widths 1–7 (the proxy's 6×6 and 3×3 stages and below) over
  // 3 × 13 = 39 planes: four whole blocks of eight and a tail of seven,
  // whose blocks mix channels of two samples. Plain and fused epilogues.
  int checked = 0;
  for (long k : {3L, 5L, 7L}) {
    for (long stride : {1L, 2L}) {
      for (long ow = 1; ow <= 7; ++ow) {
        const long pad = k / 2;
        const long hw = (ow - 1) * stride + k - 2 * pad;
        util::Rng rng(static_cast<std::uint64_t>(500 * k + 50 * stride + ow));
        const long ch = 13;
        Conv2d conv(ch, ch, k, stride, pad, ch, /*bias=*/false, rng);
        const Tensor x = signed_zero_input({3, ch, hw, hw}, rng);
        const std::string where = "k=" + std::to_string(k) +
                                  " s=" + std::to_string(stride) +
                                  " ow=" + std::to_string(ow);
        Tensor got = conv.forward(x);
        ASSERT_EQ(got.dim(3), ow) << where;
        EXPECT_TRUE(bit_equal(
            got, depthwise_reference(x, conv.weight().value, stride, pad,
                                     nullptr, nullptr, EpilogueAct::kNone,
                                     false)))
            << where;
        const Tensor scale = Tensor::uniform({ch}, 0.5f, 1.5f, rng);
        const Tensor shift = Tensor::uniform({ch}, -0.3f, 0.3f, rng);
        got = conv.forward_fused(x, scale.data(), shift.data(),
                                 EpilogueAct::kHSwish);
        EXPECT_TRUE(bit_equal(
            got, depthwise_reference(x, conv.weight().value, stride, pad,
                                     scale.data(), shift.data(),
                                     EpilogueAct::kHSwish, true)))
            << where << " fused";
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3 * 2 * 7);
}

TEST(DepthwiseParity, NonSquareUnpaddedAndEpilogues) {
  struct Case {
    long k, stride, pad, h, w;
  };
  const Case cases[] = {{3, 1, 1, 5, 13}, {5, 2, 2, 16, 9}, {3, 1, 0, 12, 12},
                        {7, 1, 3, 12, 12}, {5, 3, 2, 14, 14}, {3, 2, 1, 6, 6}};
  for (const Case& c : cases) {
    util::Rng rng(static_cast<std::uint64_t>(c.k * 31 + c.h * 7 + c.w));
    const long ch = 4;
    Conv2d conv(ch, ch, c.k, c.stride, c.pad, ch, /*bias=*/true, rng);
    conv.bias()->value = Tensor::uniform({ch}, -0.5f, 0.5f, rng);
    const Tensor x = signed_zero_input({2, ch, c.h, c.w}, rng);
    const std::string where = "k=" + std::to_string(c.k) +
                              " s=" + std::to_string(c.stride) +
                              " pad=" + std::to_string(c.pad) + " in=" +
                              std::to_string(c.h) + "x" + std::to_string(c.w);

    // Bias rides the epilogue as shift with unit scale.
    const Tensor with_bias = depthwise_reference(
        x, conv.weight().value, c.stride, c.pad, nullptr,
        conv.bias()->value.data(), EpilogueAct::kNone, true);
    EXPECT_TRUE(bit_equal(conv.forward(x), with_bias)) << where;

    // Folded BN + activation through forward_fused.
    const Tensor scale = Tensor::uniform({ch}, 0.5f, 1.5f, rng);
    const Tensor shift = Tensor::uniform({ch}, -0.3f, 0.3f, rng);
    for (EpilogueAct act : {EpilogueAct::kReLU, EpilogueAct::kHSwish}) {
      const Tensor want =
          depthwise_reference(x, conv.weight().value, c.stride, c.pad,
                              scale.data(), shift.data(), act, true);
      EXPECT_TRUE(bit_equal(
          conv.forward_fused(x, scale.data(), shift.data(), act), want))
          << where;
    }
  }
}

/// The sample-batched pointwise product the direct path bypasses: all
/// samples' columns in one (cin × n·hw) matrix, one GEMM, transposed back.
Tensor pointwise_batched(const Tensor& x, const Tensor& weight,
                         const tensor::GemmEpilogue* ep) {
  const long n = x.dim(0), cin = x.dim(1), hw = x.dim(2) * x.dim(3);
  const long cout = weight.dim(0);
  std::vector<float> cols(static_cast<std::size_t>(cin * n * hw));
  for (long s = 0; s < n; ++s) {
    for (long r = 0; r < cin; ++r) {
      std::memcpy(cols.data() + r * n * hw + s * hw,
                  x.data() + (s * cin + r) * hw,
                  static_cast<std::size_t>(hw) * sizeof(float));
    }
  }
  std::vector<float> panel(static_cast<std::size_t>(cout * n * hw));
  const auto m = static_cast<std::size_t>(cout);
  const auto cols_n = static_cast<std::size_t>(n * hw);
  const auto depth = static_cast<std::size_t>(cin);
  if (ep != nullptr) {
    tensor::gemm_fused(m, cols_n, depth, 1.0f, weight.data(), cols.data(),
                       panel.data(), *ep);
  } else {
    tensor::gemm(m, cols_n, depth, 1.0f, weight.data(), cols.data(), 0.0f,
                 panel.data());
  }
  Tensor y({n, cout, x.dim(2), x.dim(3)});
  for (long s = 0; s < n; ++s) {
    for (long c = 0; c < cout; ++c) {
      std::memcpy(y.data() + (s * cout + c) * hw,
                  panel.data() + (c * n + s) * hw,
                  static_cast<std::size_t>(hw) * sizeof(float));
    }
  }
  return y;
}

/// One sample at a time through tensor::im2col + tensor::gemm.
Tensor pointwise_per_sample_im2col(const Tensor& x, const Tensor& weight) {
  const long n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long cout = weight.dim(0);
  const tensor::ConvGeom geom{cin, h, w, 1, 1, 0};
  std::vector<float> cols(static_cast<std::size_t>(cin * h * w));
  Tensor y({n, cout, h, w});
  for (long s = 0; s < n; ++s) {
    tensor::im2col(x.data() + s * cin * h * w, geom, cols.data());
    tensor::gemm(static_cast<std::size_t>(cout),
                 static_cast<std::size_t>(h * w),
                 static_cast<std::size_t>(cin), 1.0f, weight.data(),
                 cols.data(), 0.0f, y.data() + s * cout * h * w);
  }
  return y;
}

TEST(PointwiseParity, DirectPathBitIdenticalToBatchedGemm) {
  struct Case {
    long cin, cout, h, w, batch;
  };
  // Proxy-space shapes; ones whose per-sample product is small enough
  // for the GEMM's unpacked path while the batched one packs; the proxy
  // head (64→128 at 3×3), which stays on the batched path; and a
  // reduction deeper than one K block (256→6 at 1×3), where the two GEMM
  // paths round differently, so it must stay batched too.
  const Case cases[] = {
      {16, 16, 12, 12, 36}, {8, 8, 12, 12, 36}, {32, 32, 6, 6, 36},
      {16, 32, 6, 6, 36},   {16, 16, 3, 3, 36}, {4, 6, 5, 5, 7},
      {3, 16, 8, 8, 2},     {24, 40, 7, 7, 5},  {64, 128, 3, 3, 36},
      {256, 6, 1, 3, 2}};
  for (const Case& c : cases) {
    util::Rng rng(
        static_cast<std::uint64_t>(c.cin * 97 + c.cout * 13 + c.h * c.w));
    Conv2d conv(c.cin, c.cout, 1, 1, 0, 1, /*bias=*/false, rng);
    const Tensor x = signed_zero_input({c.batch, c.cin, c.h, c.w}, rng);
    const std::string where = std::to_string(c.cin) + "->" +
                              std::to_string(c.cout) + " at " +
                              std::to_string(c.h) + "x" +
                              std::to_string(c.w);
    const Tensor y = conv.forward(x);
    EXPECT_TRUE(bit_equal(y, pointwise_batched(x, conv.weight().value,
                                               nullptr)))
        << where;
    if (static_cast<std::size_t>(c.cin) <= tensor::kGemmKBlock) {
      EXPECT_TRUE(bit_equal(y, pointwise_per_sample_im2col(
                                   x, conv.weight().value)))
          << where;
    }

    const Tensor scale = Tensor::uniform({c.cout}, 0.5f, 1.5f, rng);
    const Tensor shift = Tensor::uniform({c.cout}, -0.3f, 0.3f, rng);
    tensor::GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.act = EpilogueAct::kReLU;
    EXPECT_TRUE(bit_equal(
        conv.forward_fused(x, scale.data(), shift.data(), EpilogueAct::kReLU),
        pointwise_batched(x, conv.weight().value, &ep)))
        << where << " fused";
  }
}

/// Special values every elementwise kernel must map exactly like the
/// scalar formula: signed zeros, NaN, infinities, denormals, the h-swish
/// knees at ±3 and values around them.
std::vector<float> special_values() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> v = {0.0f,    -0.0f,   std::nanf(""), -std::nanf(""),
                          inf,     -inf,    denorm,        -denorm,
                          1e-39f,  -1e-39f, -3.0f,         3.0f,
                          -2.999f, 2.999f,  -3.001f,       3.001f,
                          1.0f,    -1.0f,   6.0f,          -6.0f};
  // Pad past one vector width with a ramp so the vector body, not just a
  // scalar remainder loop, sees the special values.
  for (int i = 0; i < 45; ++i) v.push_back(-4.5f + 0.2f * static_cast<float>(i));
  return v;
}

Tensor from_values(const std::vector<float>& v) {
  Tensor t({static_cast<long>(v.size())});
  std::memcpy(t.data(), v.data(), v.size() * sizeof(float));
  return t;
}

TEST(ActivationParity, ReluOutputAndMaskMatchScalarFormula) {
  const std::vector<float> v = special_values();
  ReLU relu;
  const Tensor y = relu.forward(from_values(v));
  // The mask is observable through backward: dx = dy ⊙ mask.
  const Tensor dx = relu.backward(Tensor::full({static_cast<long>(v.size())},
                                               1.0f));
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float want = tensor::epilogue_apply(EpilogueAct::kReLU, v[i]);
    const float want_mask = v[i] > 0.0f ? 1.0f : 0.0f;
    EXPECT_EQ(0, std::memcmp(&y.data()[i], &want, sizeof(float)))
        << "relu(" << v[i] << ")";
    EXPECT_EQ(0, std::memcmp(&dx.data()[i], &want_mask, sizeof(float)))
        << "relu mask(" << v[i] << ")";
  }
  // −0, NaN and denormal-negative inputs map to +0, never −0.
  EXPECT_FALSE(std::signbit(y.data()[1]));
  EXPECT_FALSE(std::signbit(y.data()[3]));
}

TEST(ActivationParity, HSwishForwardMatchesEpilogueApply) {
  const std::vector<float> v = special_values();
  HSwish hswish;
  const Tensor y = hswish.forward(from_values(v));
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float want = tensor::epilogue_apply(EpilogueAct::kHSwish, v[i]);
    EXPECT_EQ(0, std::memcmp(&y.data()[i], &want, sizeof(float)))
        << "hswish(" << v[i] << ")";
  }
}

TEST(ActivationParity, HSwishBackwardMatchesPiecewiseDerivative) {
  const std::vector<float> v = special_values();
  HSwish hswish;
  (void)hswish.forward(from_values(v));
  util::Rng rng(5);
  const Tensor dy =
      Tensor::uniform({static_cast<long>(v.size())}, -2.0f, 2.0f, rng);
  const Tensor dx = hswish.backward(dy);
  for (std::size_t i = 0; i < v.size(); ++i) {
    float d;
    if (v[i] <= -3.0f) d = 0.0f;
    else if (v[i] >= 3.0f) d = 1.0f;
    else d = (2.0f * v[i] + 3.0f) / 6.0f;
    const float want = dy.data()[i] * d;
    EXPECT_EQ(0, std::memcmp(&dx.data()[i], &want, sizeof(float)))
        << "hswish'(" << v[i] << ")";
  }
}

/// NCHW input whose every channel, over all its (sample, pixel) values,
/// holds pairs +B, −B with B up to 2^40 at random places among values in
/// [−1, 1). The large terms cancel, but each add rounds away part of the
/// small ones beside them, so a sum's bits depend on the order of its
/// adds.
Tensor cancelling_input(long n, long c, long spatial, util::Rng& rng) {
  Tensor x = Tensor::uniform({n, c, spatial, 1}, -1.0f, 1.0f, rng);
  std::vector<long> at(static_cast<std::size_t>(n * spatial));
  for (long ch = 0; ch < c; ++ch) {
    for (long s = 0; s < n; ++s) {
      for (long i = 0; i < spatial; ++i) {
        at[static_cast<std::size_t>(s * spatial + i)] =
            (s * c + ch) * spatial + i;
      }
    }
    for (std::size_t i = at.size(); i > 1; --i) {
      std::swap(at[i - 1], at[rng.index(i)]);
    }
    for (std::size_t i = 0; i + 1 < at.size() / 2; i += 2) {
      const float big = static_cast<float>(
          std::ldexp(1.0 + rng.uniform(), static_cast<int>(rng.randint(8, 40))));
      x.data()[at[i]] = big;
      x.data()[at[i + 1]] = -big;
    }
  }
  return x;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The BatchNorm2d loops the blocked sums replace: one channel at a time,
/// each sum one chain over (sample, pixel).
struct BnReference {
  long c;
  double momentum = 0.1, eps = 1e-5;
  std::vector<float> gamma, beta, running_mean, running_var, inv_std;
  std::vector<double> mean, var, sum_dy, sum_dy_xhat;
  std::vector<float> gamma_grad, beta_grad;
  Tensor xhat;

  explicit BnReference(BatchNorm2d& bn)
      : c(bn.channels()),
        gamma(bn_values(bn.gamma().value)),
        beta(bn_values(bn.beta().value)),
        running_mean(bn_values(bn.running_mean())),
        running_var(bn_values(bn.running_var())),
        inv_std(static_cast<std::size_t>(c)),
        mean(static_cast<std::size_t>(c)),
        var(static_cast<std::size_t>(c)),
        sum_dy(static_cast<std::size_t>(c)),
        sum_dy_xhat(static_cast<std::size_t>(c)),
        gamma_grad(static_cast<std::size_t>(c)),
        beta_grad(static_cast<std::size_t>(c)) {}

  static std::vector<float> bn_values(const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
  }

  Tensor forward(const Tensor& x) {
    const long n = x.dim(0), spatial = x.dim(2) * x.dim(3);
    const double count = static_cast<double>(n * spatial);
    Tensor y(x.shape());
    xhat = Tensor(x.shape());
    for (long ch = 0; ch < c; ++ch) {
      const auto k = static_cast<std::size_t>(ch);
      double m = 0.0, v = 0.0;
      for (long s = 0; s < n; ++s) {
        const float* chan = x.data() + (s * c + ch) * spatial;
        for (long i = 0; i < spatial; ++i) m += chan[i];
      }
      m /= count;
      for (long s = 0; s < n; ++s) {
        const float* chan = x.data() + (s * c + ch) * spatial;
        for (long i = 0; i < spatial; ++i) {
          const double d = chan[i] - m;
          v += d * d;
        }
      }
      v /= count;
      mean[k] = m;
      var[k] = v;
      running_mean[k] = static_cast<float>((1.0 - momentum) * running_mean[k] +
                                           momentum * m);
      running_var[k] = static_cast<float>((1.0 - momentum) * running_var[k] +
                                          momentum * v);
      inv_std[k] = static_cast<float>(1.0 / std::sqrt(v + eps));
      const float fm = static_cast<float>(m);
      for (long s = 0; s < n; ++s) {
        const long off = (s * c + ch) * spatial;
        for (long i = 0; i < spatial; ++i) {
          const float xh = (x.data()[off + i] - fm) * inv_std[k];
          xhat.data()[off + i] = xh;
          y.data()[off + i] = gamma[k] * xh + beta[k];
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& dy) {
    const long n = dy.dim(0), spatial = dy.dim(2) * dy.dim(3);
    const double count = static_cast<double>(n * spatial);
    Tensor dx(dy.shape());
    for (long ch = 0; ch < c; ++ch) {
      const auto k = static_cast<std::size_t>(ch);
      double sd = 0.0, sdx = 0.0;
      for (long s = 0; s < n; ++s) {
        const long off = (s * c + ch) * spatial;
        for (long i = 0; i < spatial; ++i) {
          sd += dy.data()[off + i];
          sdx += static_cast<double>(dy.data()[off + i]) * xhat.data()[off + i];
        }
      }
      sum_dy[k] = sd;
      sum_dy_xhat[k] = sdx;
      gamma_grad[k] += static_cast<float>(sdx);
      beta_grad[k] += static_cast<float>(sd);
      const float mean_dy = static_cast<float>(sd / count);
      const float mean_dy_xhat = static_cast<float>(sdx / count);
      for (long s = 0; s < n; ++s) {
        const long off = (s * c + ch) * spatial;
        for (long i = 0; i < spatial; ++i) {
          dx.data()[off + i] =
              gamma[k] * inv_std[k] *
              (dy.data()[off + i] - mean_dy - xhat.data()[off + i] * mean_dy_xhat);
        }
      }
    }
    return dx;
  }
};

TEST(BatchNormParity, BlockedSumsBitIdenticalToPerChannelChains) {
  int checked = 0;
  for (long c : {1L, 3L, 8L, 13L, 128L}) {
    for (long spatial : {1L, 9L, 144L}) {
      util::Rng rng(static_cast<std::uint64_t>(1000 * c + spatial));
      const long n = 3;
      const std::string where =
          "c=" + std::to_string(c) + " spatial=" + std::to_string(spatial);
      BatchNorm2d bn(c);
      bn.gamma().value = Tensor::uniform({c}, 0.5f, 1.5f, rng);
      bn.beta().value = Tensor::uniform({c}, -0.5f, 0.5f, rng);
      BnReference ref(bn);

      // Two training steps, so the running statistics update twice.
      for (int step = 0; step < 2; ++step) {
        const Tensor x = cancelling_input(n, c, spatial, rng);
        const Tensor y = bn.forward(x);
        EXPECT_TRUE(bit_equal(y, ref.forward(x))) << where << " forward";
        std::vector<double> mean(static_cast<std::size_t>(c));
        std::vector<double> var(static_cast<std::size_t>(c));
        detail::bn_batch_stats(x.data(), n, c, spatial, mean.data(),
                               var.data());
        EXPECT_TRUE(bits_equal(mean, ref.mean)) << where << " mean";
        EXPECT_TRUE(bits_equal(var, ref.var)) << where << " var";
        EXPECT_EQ(0, std::memcmp(bn.running_mean().data(),
                                 ref.running_mean.data(),
                                 ref.running_mean.size() * sizeof(float)))
            << where << " running mean";
        EXPECT_EQ(0, std::memcmp(bn.running_var().data(),
                                 ref.running_var.data(),
                                 ref.running_var.size() * sizeof(float)))
            << where << " running var";

        const Tensor dy = cancelling_input(n, c, spatial, rng);
        EXPECT_TRUE(bit_equal(bn.backward(dy), ref.backward(dy)))
            << where << " backward";
        std::vector<double> sum_dy(static_cast<std::size_t>(c));
        std::vector<double> sum_dy_xhat(static_cast<std::size_t>(c));
        detail::bn_grad_sums(dy.data(), ref.xhat.data(), n, c, spatial,
                             sum_dy.data(), sum_dy_xhat.data());
        EXPECT_TRUE(bits_equal(sum_dy, ref.sum_dy)) << where << " sum dy";
        EXPECT_TRUE(bits_equal(sum_dy_xhat, ref.sum_dy_xhat))
            << where << " sum dy*xhat";
        EXPECT_EQ(0, std::memcmp(bn.gamma().grad.data(),
                                 ref.gamma_grad.data(),
                                 ref.gamma_grad.size() * sizeof(float)))
            << where << " gamma grad";
        EXPECT_EQ(0, std::memcmp(bn.beta().grad.data(), ref.beta_grad.data(),
                                 ref.beta_grad.size() * sizeof(float)))
            << where << " beta grad";
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 5 * 3);
}

TEST(GapParity, BlockedPlanesBitIdenticalToPerPlaneChains) {
  // n·c = 1, 3, 8, 39 and 4608 (the proxy head, 36 × 128): whole blocks
  // of eight planes, a tail, and tails alone.
  struct Case {
    long n, c, spatial;
  };
  const Case cases[] = {{1, 1, 9},  {1, 3, 144}, {2, 4, 9},
                        {3, 13, 9}, {3, 13, 1},  {36, 128, 9}};
  for (const Case& k : cases) {
    util::Rng rng(
        static_cast<std::uint64_t>(k.n * 1000 + k.c * 10 + k.spatial));
    // Cancelling pairs within each plane: one "channel" per plane.
    const Tensor x = cancelling_input(1, k.n * k.c, k.spatial, rng)
                         .reshaped({k.n, k.c, k.spatial, 1});
    Tensor want({k.n, k.c});
    for (long t = 0; t < k.n * k.c; ++t) {
      double acc = 0.0;
      for (long i = 0; i < k.spatial; ++i) acc += x.data()[t * k.spatial + i];
      want.data()[t] =
          static_cast<float>(acc / static_cast<double>(k.spatial));
    }
    GlobalAvgPool gap;
    EXPECT_TRUE(bit_equal(gap.forward(x), want))
        << "n=" << k.n << " c=" << k.c << " spatial=" << k.spatial;
  }
}

}  // namespace
}  // namespace hsconas::nn
