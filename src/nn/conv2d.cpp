#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "nn/op_profile.h"
#include "tensor/gemm.h"
#include "tensor/gemm_i8.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace hsconas::nn {

using tensor::ConvGeom;
using tensor::Tensor;

namespace {

/// Profiler describe callback payload. `work_mult` scales the analytic
/// single-pass work: 1 for forward, 2 for backward (dW and dX GEMMs).
/// Defensive about shapes — forward_impl's own validation throws after
/// the scope opens, so a malformed input must not crash the hook.
obs::OpInfo conv_op_info(const Conv2d& conv, const Tensor& x, const char* op,
                         double work_mult) {
  obs::OpInfo info;
  info.key.op = op;
  const bool depthwise = conv.groups() == conv.in_channels() &&
                         conv.groups() == conv.out_channels();
  info.key.kind = depthwise ? "dwconv" : "conv";
  info.key.in_ch = conv.in_channels();
  info.key.out_ch = conv.out_channels();
  info.key.kernel = conv.kernel();
  info.key.stride = conv.stride();
  info.key.groups = conv.groups();
  if (x.ndim() != 4 || x.dim(1) != conv.in_channels()) return info;
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  info.key.batch = n;
  info.key.in_h = h;
  info.key.in_w = w;
  ConvGeom geom{conv.in_channels() / conv.groups(), h, w, conv.kernel(),
                conv.stride(), conv.pad()};
  if (geom.out_h() <= 0 || geom.out_w() <= 0) return info;
  const double batch = static_cast<double>(n);
  const double macs = static_cast<double>(conv.macs(h, w));
  const double out_numel = batch * static_cast<double>(conv.out_channels()) *
                           static_cast<double>(geom.out_h()) *
                           static_cast<double>(geom.out_w());
  const double weight_numel =
      static_cast<double>(conv.out_channels()) *
      static_cast<double>(conv.in_channels() / conv.groups()) *
      static_cast<double>(conv.kernel() * conv.kernel());
  info.flops = work_mult * 2.0 * macs * batch;
  info.bytes = work_mult * 4.0 *
               (static_cast<double>(x.numel()) + out_numel + weight_numel);
  return info;
}

/// Geometry of one (sample, channel) plane of a depthwise convolution.
struct DwGeom {
  long h, w, k, stride, pad, oh, ow;
};

/// Output columns the padded int8 depthwise kernel accumulates together:
/// one SSE vector at the `nn` library's baseline ISA.
constexpr long kDwLanes = 4;

/// Row stride of one column phase of the padded plane: every lane of the
/// last lane group plus the taps past it stay inside the row.
long dw_phase_width(const DwGeom& g) {
  const long lanes = (g.ow + kDwLanes - 1) / kDwLanes * kDwLanes;
  return lanes + (g.k - 1) / g.stride;
}

/// Bytes of the padded int8 plane: `stride` column phases of
/// (h + 2·pad) rows of dw_phase_width() each.
std::size_t dw_padded_size(const DwGeom& g) {
  return static_cast<std::size_t>(g.stride * (g.h + 2 * g.pad) *
                                  dw_phase_width(g));
}

/// Copy a plane into `buf`, already filled with the padding value, as
/// `stride` column phases: phase q holds the padded columns q, q+stride,
/// q+2·stride, … so that at any stride the taps of adjacent outputs are
/// adjacent in memory. Padded column c is image column c − pad.
template <typename T>
void dw_fill_phases(const DwGeom& g, const T* img, T* HSCONAS_RESTRICT buf) {
  const long rows = g.h + 2 * g.pad;
  const long width = dw_phase_width(g);
  for (long q = 0; q < g.stride; ++q) {
    const long first = (g.pad - q + g.stride - 1) / g.stride;
    const long last =
        std::min(width, (g.w + g.pad - q + g.stride - 1) / g.stride);
    for (long y = 0; y < g.h; ++y) {
      const T* src = img + y * g.w;
      T* HSCONAS_RESTRICT dst = buf + (q * rows + y + g.pad) * width;
      for (long c = first; c < last; ++c) {
        dst[c] = src[c * g.stride + q - g.pad];
      }
    }
  }
}

/// Depthwise plane over a dw_fill_phases() buffer, kDwLanes outputs of a
/// row at a time. Every output sums all k×k taps in (ky, kx) order from a
/// zero accumulator, and each lane group's loads are contiguous, so the
/// lane loop compiles to vector code; `store(index, acc)` writes each
/// finished accumulator. The int8 path pads with the input zero point,
/// which the full-row weight sum already corrects for.
template <typename Acc, typename W, typename T, typename Store>
void dw_plane_padded(const DwGeom& g, const W* wk, const T* buf,
                     Store&& store) {
  const long width = dw_phase_width(g);
  const long phase = (g.h + 2 * g.pad) * width;
  for (long oy = 0; oy < g.oh; ++oy) {
    for (long j = 0; j < g.ow; j += kDwLanes) {
      Acc acc[kDwLanes] = {};
      for (long ky = 0; ky < g.k; ++ky) {
        const T* row = buf + (oy * g.stride + ky) * width + j;
        const W* wrow = wk + ky * g.k;
        long q = 0;    // column phase of tap kx
        long off = 0;  // its offset within the phase
        for (long kx = 0; kx < g.k; ++kx) {
          const T* HSCONAS_RESTRICT src = row + q * phase + off;
          const Acc wv = static_cast<Acc>(wrow[kx]);
          for (long l = 0; l < kDwLanes; ++l) {
            acc[l] += wv * static_cast<Acc>(src[l]);
          }
          if (++q == g.stride) {
            q = 0;
            ++off;
          }
        }
      }
      const long lanes = std::min(kDwLanes, g.ow - j);
      for (long l = 0; l < lanes; ++l) store(oy * g.ow + j + l, acc[l]);
    }
  }
}

/// (sample, channel) planes the fp32 depthwise kernel accumulates
/// together: each output of one plane is a serial chain of up to k·k
/// adds, so one plane at a time runs at add latency.
constexpr long kDwPlanes = 8;

/// Copy planes t0 … t0 + count − 1 of `x` (hw floats each; plane t is of
/// channel t % channels, whose `taps` weights start at wk + (t % channels)
/// · taps) into one interleaved block: pixel i of block plane p lands at
/// img[i·kDwPlanes + p], tap j of its weights at wts[j·kDwPlanes + p].
/// Block planes past `count` get zero pixels and weights; their sums are
/// never stored.
void dw_interleave(const float* x, const float* wk, long t0, long count,
                   long channels, long hw, long taps,
                   float* HSCONAS_RESTRICT img, float* HSCONAS_RESTRICT wts) {
  for (long p = 0; p < count; ++p) {
    const float* src = x + (t0 + p) * hw;
    const float* w = wk + (t0 + p) % channels * taps;
    for (long i = 0; i < hw; ++i) img[i * kDwPlanes + p] = src[i];
    for (long j = 0; j < taps; ++j) wts[j * kDwPlanes + p] = w[j];
  }
  for (long p = count; p < kDwPlanes; ++p) {
    for (long i = 0; i < hw; ++i) img[i * kDwPlanes + p] = 0.0f;
    for (long j = 0; j < taps; ++j) wts[j * kDwPlanes + p] = 0.0f;
  }
}

/// fp32 depthwise over a dw_interleave() block of planes: the in-range
/// taps of each output form a [ky0, ky1) × [kx0, kx0 + taps) rectangle
/// whose bounds are computed once per output for all kDwPlanes planes,
/// so the tap loops carry no branch. Each plane keeps its own
/// accumulator and adds exactly its in-range products in (ky, kx) order,
/// as the one-plane loop did; the plane loop is contiguous, so it
/// compiles to vector code whose lanes are those independent chains.
/// `store(index, acc)` receives the kDwPlanes sums of each output.
template <typename Store>
void dw_planes(const DwGeom& g, const float* img, const float* wts,
               Store&& store) {
  constexpr long P = kDwPlanes;
  for (long oy = 0; oy < g.oh; ++oy) {
    const long iy0 = oy * g.stride - g.pad;
    const long ky0 = std::max(0L, -iy0);
    const long ky1 = std::min(g.k, g.h - iy0);
    for (long ox = 0; ox < g.ow; ++ox) {
      const long ix0 = ox * g.stride - g.pad;
      const long kx0 = std::max(0L, -ix0);
      const long taps = std::min(g.k, g.w - ix0) - kx0;
      const float* irow = img + ((iy0 + ky0) * g.w + ix0 + kx0) * P;
      const float* wrow = wts + (ky0 * g.k + kx0) * P;
      float acc[P] = {};
      for (long ky = ky0; ky < ky1; ++ky, irow += g.w * P, wrow += g.k * P) {
        for (long kx = 0; kx < taps; ++kx) {
          for (long p = 0; p < P; ++p) {
            acc[p] += wrow[kx * P + p] * irow[kx * P + p];
          }
        }
      }
      store(oy * g.ow + ox, acc);
    }
  }
}

}  // namespace

Conv2d::Conv2d(long in_channels, long out_channels, long kernel, long stride,
               long pad, long groups, bool bias, util::Rng& rng,
               std::string display_name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      has_bias_(bias),
      display_name_(std::move(display_name)) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0 || groups <= 0) {
    throw InvalidArgument("Conv2d: non-positive geometry");
  }
  if (in_channels % groups != 0 || out_channels % groups != 0) {
    throw InvalidArgument("Conv2d: channels not divisible by groups");
  }
  const long fan_in = (in_channels / groups) * kernel * kernel;
  const float std_dev =
      std::sqrt(2.0f / static_cast<float>(fan_in));  // Kaiming, ReLU gain
  weight_ = Parameter(
      display_name_ + ".weight",
      Tensor::normal({out_channels, in_channels / groups, kernel, kernel},
                     0.0f, std_dev, rng),
      /*decay=*/true);
  if (has_bias_) {
    bias_ = Parameter(display_name_ + ".bias", Tensor({out_channels}),
                      /*decay=*/false);
  }
}

Tensor Conv2d::forward(const Tensor& x) {
  obs::OpScope prof([&] { return conv_op_info(*this, x, "conv2d", 1.0); });
  // Fold the bias into the GEMM epilogue (scale 1, shift b, no act): the
  // sum and the single bias add happen in the same order as a separate
  // bias pass would do them, so training numbers are unchanged — minus
  // one full pass over the output tensor.
  tensor::GemmEpilogue ep;
  if (has_bias_) ep.shift = bias_.value.data();
  Tensor y = forward_impl(x, has_bias_ ? &ep : nullptr);
  cached_input_ = x;
  return y;
}

Tensor Conv2d::forward_fused(const Tensor& x, const float* scale,
                             const float* shift, tensor::EpilogueAct act) {
  obs::OpScope prof(
      [&] { return conv_op_info(*this, x, "conv2d.fused", 1.0); });
  tensor::GemmEpilogue ep;
  ep.scale = scale;
  ep.shift = shift;
  ep.act = act;
  return forward_impl(x, &ep);
}

Tensor Conv2d::forward_impl(const Tensor& x, const tensor::GemmEpilogue* ep) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw InvalidArgument("Conv2d " + display_name_ + ": bad input shape " +
                          x.shape_str());
  }
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long cin_g = in_channels_ / groups_;
  const long cout_g = out_channels_ / groups_;
  ConvGeom geom{cin_g, h, w, kernel_, stride_, pad_};
  const long oh = geom.out_h(), ow = geom.out_w();
  if (oh <= 0 || ow <= 0) {
    throw InvalidArgument("Conv2d " + display_name_ +
                          ": output collapses to zero size");
  }

  if (!training_) {
    // The dtype seam. An armed layer observes its fp32 input; a frozen
    // layer computes in int8 (only at reduction depths the int32
    // accumulators cover — others keep computing fp32, so mixed-readiness
    // models stay correct).
    if (quant_.observing) {
      quant_.observer.observe(x.data(), static_cast<std::size_t>(x.numel()));
    }
    if (quant_.ready &&
        static_cast<std::size_t>(cin_g * kernel_ * kernel_) <=
            tensor::kGemmI8MaxK) {
      return forward_quant_impl(x, ep);
    }
  }

  Tensor y({n, out_channels_, oh, ow});
  const long col_rows = cin_g * kernel_ * kernel_;
  const long ohw = oh * ow;
  auto& pool = util::ThreadPool::global();

  if (cin_g == 1 && cout_g == 1) {
    // Depthwise: skip im2col + per-group m==1 GEMMs entirely and compute
    // the (sample, channel) planes directly, kDwPlanes per task, in
    // parallel — blocks are disjoint, the (ky, kx) accumulation order is
    // fixed, and the fused epilogue lands on each accumulator while it is
    // still in a register. Every output adds exactly its in-range taps,
    // so it has the bits of the tap-skipping loop for any weights.
    const DwGeom g{h, w, kernel_, stride_, pad_, oh, ow};
    const long planes = n * out_channels_;
    const long taps = kernel_ * kernel_;
    pool.parallel_for(
        static_cast<std::size_t>((planes + kDwPlanes - 1) / kDwPlanes),
        [&](std::size_t b) {
      const long t0 = static_cast<long>(b) * kDwPlanes;
      const long count = std::min(kDwPlanes, planes - t0);
      tensor::Scratch buf = tensor::Workspace::tls().take(
          static_cast<std::size_t>((h * w + taps) * kDwPlanes));
      float* img = buf.data();
      float* wts = img + h * w * kDwPlanes;
      dw_interleave(x.data(), weight_.value.data(), t0, count, out_channels_,
                    h * w, taps, img, wts);
      float* out[kDwPlanes] = {};
      float es[kDwPlanes] = {}, et[kDwPlanes] = {};
      for (long p = 0; p < count; ++p) {
        const long c = (t0 + p) % out_channels_;
        out[p] = y.data() + (t0 + p) * ohw;
        es[p] = ep != nullptr && ep->scale != nullptr ? ep->scale[c] : 1.0f;
        et[p] = ep != nullptr && ep->shift != nullptr ? ep->shift[c] : 0.0f;
      }
      dw_planes(g, img, wts, [&](long i, const float* acc) {
        for (long p = 0; p < count; ++p) {
          out[p][i] = ep != nullptr
                          ? tensor::epilogue_apply(
                                ep->act,
                                tensor::epilogue_affine(es[p], acc[p], et[p]))
                          : acc[p];
        }
      });
    });
    return y;
  }

  // Pointwise: each sample's NCHW slab already is the (cin × hw) column
  // matrix, and its (cout × hw) product is the sample's NCHW output, so
  // the GEMM can read x and write y directly — no im2col, no scatter.
  // Within one K block a column's value does not depend on the columns
  // beside it, so this equals the sample-batched product bit for bit. It
  // pays while the three per-sample copies it saves (2·cin·hw in,
  // cout·hw out) outweigh the weights each per-sample GEMM packs again:
  // timed both ways at batch 36, 16→16 on 12×12 runs 1.8× faster direct,
  // while 64→128 on 3×3 runs 1.7× faster batched (docs/PERFORMANCE.md).
  if (kernel_ == 1 && stride_ == 1 && pad_ == 0 && groups_ == 1 &&
      static_cast<std::size_t>(in_channels_) <= tensor::kGemmKBlock &&
      ohw * (2 * in_channels_ + out_channels_) >=
          in_channels_ * out_channels_) {
    const float* wgt = weight_.value.data();
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t si) {
      const long s = static_cast<long>(si);
      const float* xs = x.data() + s * in_channels_ * ohw;
      float* ys = y.data() + s * out_channels_ * ohw;
      if (ep != nullptr) {
        tensor::gemm_fused(static_cast<std::size_t>(out_channels_),
                           static_cast<std::size_t>(ohw),
                           static_cast<std::size_t>(in_channels_), 1.0f, wgt,
                           xs, ys, *ep);
      } else {
        tensor::gemm(static_cast<std::size_t>(out_channels_),
                     static_cast<std::size_t>(ohw),
                     static_cast<std::size_t>(in_channels_), 1.0f, wgt, xs,
                     0.0f, ys);
      }
    });
    return y;
  }

  // Batch the GEMM across samples: one (cout_g × col_rows)·(col_rows ×
  // N·ohw) product per group instead of N skinny ones. The column matrix
  // concatenates every sample's im2col panel, so the GEMM result lands in
  // a (cout_g, N, oh, ow) scratch that is transposed back to NCHW. All
  // scratch is leased from the thread-local workspace pool — no heap
  // allocation on the steady-state path.
  tensor::Workspace& ws = tensor::Workspace::tls();
  tensor::Scratch cols = ws.take(static_cast<std::size_t>(col_rows * n * ohw));
  tensor::Scratch out_panel =
      ws.take(static_cast<std::size_t>(cout_g * n * ohw));

  for (long g = 0; g < groups_; ++g) {
    // Per-sample im2col panels are independent and each sample writes a
    // disjoint column stripe, so pack them in parallel. The panel scratch
    // is leased inside the body: every worker uses its own pool.
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t si) {
      const long s = static_cast<long>(si);
      tensor::Scratch panel =
          tensor::Workspace::tls().take(static_cast<std::size_t>(col_rows * ohw));
      const float* img = x.data() + ((s * in_channels_ + g * cin_g) * h * w);
      // Write sample s's panel into columns [s*ohw, (s+1)*ohw):
      // im2col fills row-major (col_rows × ohw); scatter rows by stride.
      tensor::im2col(img, geom, panel.data());
      for (long r = 0; r < col_rows; ++r) {
        std::copy(panel.data() + r * ohw, panel.data() + (r + 1) * ohw,
                  cols.data() + r * n * ohw + s * ohw);
      }
    });
    const float* wgt =
        weight_.value.data() + g * cout_g * cin_g * kernel_ * kernel_;
    if (ep != nullptr) {
      // The GEMM row axis is the output channel within this group, so the
      // per-row epilogue is exactly the per-channel bias/BN/act — sliced
      // to this group's channel range.
      tensor::GemmEpilogue gep;
      gep.scale = ep->scale != nullptr ? ep->scale + g * cout_g : nullptr;
      gep.shift = ep->shift != nullptr ? ep->shift + g * cout_g : nullptr;
      gep.act = ep->act;
      tensor::gemm_fused(static_cast<std::size_t>(cout_g),
                         static_cast<std::size_t>(n * ohw),
                         static_cast<std::size_t>(col_rows), 1.0f, wgt,
                         cols.data(), out_panel.data(), gep);
    } else {
      tensor::gemm(static_cast<std::size_t>(cout_g),
                   static_cast<std::size_t>(n * ohw),
                   static_cast<std::size_t>(col_rows), 1.0f, wgt, cols.data(),
                   0.0f, out_panel.data());
    }
    pool.parallel_for(static_cast<std::size_t>(cout_g), [&](std::size_t ci) {
      const long c = static_cast<long>(ci);
      for (long s = 0; s < n; ++s) {
        std::copy(out_panel.data() + (c * n + s) * ohw,
                  out_panel.data() + (c * n + s + 1) * ohw,
                  y.data() + ((s * out_channels_ + g * cout_g + c) * ohw));
      }
    });
  }
  return y;
}

Tensor Conv2d::forward_quant_impl(const Tensor& x,
                                  const tensor::GemmEpilogue* ep) {
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long cin_g = in_channels_ / groups_;
  const long cout_g = out_channels_ / groups_;
  ConvGeom geom{cin_g, h, w, kernel_, stride_, pad_};
  const long oh = geom.out_h(), ow = geom.out_w();
  Tensor y({n, out_channels_, oh, ow});
  const long col_rows = cin_g * kernel_ * kernel_;
  const long ohw = oh * ow;
  auto& pool = util::ThreadPool::global();

  const tensor::QuantParams aq = quant_.input;
  const std::int32_t za = aq.zero_point;
  const std::int8_t* qw = quant_.qweight.i8_data();

  // Compose the caller's per-channel affine with the dequantization:
  //   real_acc = s_a * s_w[c] * (int_acc - z_a * wsum[c])
  // so  act(scale[c] * real_acc + shift[c])
  //   = act((scale[c] * s_a * s_w[c]) * (int_acc + acc_bias[c]) + shift[c])
  // with acc_bias[c] = -z_a * wsum[c] — exactly the QuantEpilogue form,
  // applied in the int8 GEMM's C-writeback.
  tensor::Workspace& ws = tensor::Workspace::tls();
  tensor::Scratch qscale = ws.take(static_cast<std::size_t>(out_channels_));
  tensor::ByteScratch qbias = ws.take_bytes(
      static_cast<std::size_t>(out_channels_) * sizeof(std::int32_t));
  // int32 view of 64B-aligned pooled scratch, not wire decoding.
  // hsconas-lint-allow(serial-pointer-cast)
  std::int32_t* acc_bias = reinterpret_cast<std::int32_t*>(qbias.u8());
  for (long c = 0; c < out_channels_; ++c) {
    const float es =
        (ep != nullptr && ep->scale != nullptr) ? ep->scale[c] : 1.0f;
    qscale[static_cast<std::size_t>(c)] =
        es * aq.scale * quant_.weight_scales[static_cast<std::size_t>(c)];
    acc_bias[c] = -za * quant_.weight_row_sums[static_cast<std::size_t>(c)];
  }

  if (cin_g == 1 && cout_g == 1) {
    // Depthwise: quantize each input plane once into a plane padded with
    // the input zero point, then accumulate every tap in int32. A padding
    // tap adds w·z_a, which the full-row acc_bias = −z_a·wsum removes, so
    // each integer sum equals the in-range-taps-only sum exactly.
    const DwGeom g{h, w, kernel_, stride_, pad_, oh, ow};
    const std::uint8_t pad_q = static_cast<std::uint8_t>(za);
    pool.parallel_for(static_cast<std::size_t>(n * out_channels_),
                      [&](std::size_t t) {
      const long s = static_cast<long>(t) / out_channels_;
      const long c = static_cast<long>(t) % out_channels_;
      tensor::Workspace& tls = tensor::Workspace::tls();
      tensor::ByteScratch qplane =
          tls.take_bytes(static_cast<std::size_t>(h * w));
      quantize_u8(x.data() + ((s * in_channels_ + c) * h * w),
                  static_cast<std::size_t>(h * w), aq, qplane.u8());
      tensor::ByteScratch qbuf = tls.take_bytes(dw_padded_size(g));
      std::fill_n(qbuf.u8(), qbuf.size(), pad_q);
      dw_fill_phases(g, qplane.u8(), qbuf.u8());
      float* out = y.data() + ((s * out_channels_ + c) * ohw);
      const float qs = qscale[static_cast<std::size_t>(c)];
      const std::int32_t bias = acc_bias[c];
      const float et = (ep != nullptr && ep->shift != nullptr)
                           ? ep->shift[c] : 0.0f;
      const tensor::EpilogueAct act =
          ep != nullptr ? ep->act : tensor::EpilogueAct::kNone;
      dw_plane_padded<std::int32_t>(
          g, qw + c * kernel_ * kernel_, qbuf.u8(),
          [&](long i, std::int32_t acc) {
            // hsconas-lint-allow(quant-dtype-discipline): sanctioned
            // int32→float dequantization site (depthwise writeback).
            const float deq = static_cast<float>(acc + bias);
            out[i] = tensor::epilogue_apply(
                act, tensor::epilogue_affine(qs, deq, et));
          });
    });
    return y;
  }

  // Grouped path: same sample-batched im2col as fp32, but the scattered
  // column matrix is quantized to u8 per sample (each sample's stripe is
  // quantized independently, which keeps batched == sequential results
  // bit-identical), then one int8 GEMM per group dequantizes in its
  // writeback epilogue.
  tensor::ByteScratch qcols =
      ws.take_bytes(static_cast<std::size_t>(col_rows * n * ohw));
  tensor::Scratch out_panel =
      ws.take(static_cast<std::size_t>(cout_g * n * ohw));

  for (long g = 0; g < groups_; ++g) {
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t si) {
      const long s = static_cast<long>(si);
      tensor::Scratch panel = tensor::Workspace::tls().take(
          static_cast<std::size_t>(col_rows * ohw));
      const float* img = x.data() + ((s * in_channels_ + g * cin_g) * h * w);
      tensor::im2col(img, geom, panel.data());
      // im2col zero-padding quantizes to exactly z_a (the observer range
      // always includes 0), so padded taps contribute 0 after the
      // acc_bias correction — the full-row wsum stays valid.
      for (long r = 0; r < col_rows; ++r) {
        quantize_u8(panel.data() + r * ohw, static_cast<std::size_t>(ohw),
                    aq, qcols.u8() + r * n * ohw + s * ohw);
      }
    });
    const std::int8_t* wgt = qw + g * cout_g * col_rows;
    tensor::QuantEpilogue qep;
    qep.scale = qscale.data() + g * cout_g;
    qep.shift = (ep != nullptr && ep->shift != nullptr)
                    ? ep->shift + g * cout_g : nullptr;
    qep.acc_bias = acc_bias + g * cout_g;
    qep.act = ep != nullptr ? ep->act : tensor::EpilogueAct::kNone;
    tensor::gemm_i8_requant(static_cast<std::size_t>(cout_g),
                            static_cast<std::size_t>(n * ohw),
                            static_cast<std::size_t>(col_rows), wgt,
                            qcols.u8(), out_panel.data(), qep);
    pool.parallel_for(static_cast<std::size_t>(cout_g), [&](std::size_t ci) {
      const long c = static_cast<long>(ci);
      for (long s = 0; s < n; ++s) {
        std::copy(out_panel.data() + (c * n + s) * ohw,
                  out_panel.data() + (c * n + s + 1) * ohw,
                  y.data() + ((s * out_channels_ + g * cout_g + c) * ohw));
      }
    });
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& dy) {
  const Tensor& x = cached_input_;
  HSCONAS_CHECK_MSG(!x.empty(), "Conv2d::backward before forward");
  obs::OpScope prof(
      [&] { return conv_op_info(*this, x, "conv2d.bwd", 2.0); });
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long cin_g = in_channels_ / groups_;
  const long cout_g = out_channels_ / groups_;
  ConvGeom geom{cin_g, h, w, kernel_, stride_, pad_};
  const long oh = geom.out_h(), ow = geom.out_w();
  HSCONAS_CHECK_MSG(dy.ndim() == 4 && dy.dim(0) == n &&
                        dy.dim(1) == out_channels_ && dy.dim(2) == oh &&
                        dy.dim(3) == ow,
                    "Conv2d::backward: dy shape mismatch");

  Tensor dx(x.shape());
  const long col_rows = cin_g * kernel_ * kernel_;
  const long ohw = oh * ow;

  // Mirror the forward pass's sample batching: per group, build the
  // concatenated column matrix and output-gradient panel once, run two
  // well-shaped GEMMs, then scatter the column gradients back per sample.
  tensor::Workspace& ws = tensor::Workspace::tls();
  tensor::Scratch cols = ws.take(static_cast<std::size_t>(col_rows * n * ohw));
  tensor::Scratch dy_panel =
      ws.take(static_cast<std::size_t>(cout_g * n * ohw));
  tensor::Scratch dcols =
      ws.take(static_cast<std::size_t>(col_rows * n * ohw));
  auto& pool = util::ThreadPool::global();

  for (long g = 0; g < groups_; ++g) {
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t si) {
      const long s = static_cast<long>(si);
      tensor::Scratch panel =
          tensor::Workspace::tls().take(static_cast<std::size_t>(col_rows * ohw));
      const float* img = x.data() + ((s * in_channels_ + g * cin_g) * h * w);
      tensor::im2col(img, geom, panel.data());
      for (long r = 0; r < col_rows; ++r) {
        std::copy(panel.data() + r * ohw, panel.data() + (r + 1) * ohw,
                  cols.data() + r * n * ohw + s * ohw);
      }
      for (long c = 0; c < cout_g; ++c) {
        const float* grad_out =
            dy.data() + ((s * out_channels_ + g * cout_g + c) * ohw);
        std::copy(grad_out, grad_out + ohw,
                  dy_panel.data() + (c * n + s) * ohw);
      }
    });

    float* wgrad =
        weight_.grad.data() + g * cout_g * cin_g * kernel_ * kernel_;
    const float* wgt =
        weight_.value.data() + g * cout_g * cin_g * kernel_ * kernel_;

    // dW += dY_panel · colsᵀ  — (cout_g × N·ohw) · (N·ohw × col_rows).
    tensor::gemm_a_bt(static_cast<std::size_t>(cout_g),
                      static_cast<std::size_t>(col_rows),
                      static_cast<std::size_t>(n * ohw), 1.0f,
                      dy_panel.data(), cols.data(), 1.0f, wgrad);

    // dcols = Wᵀ · dY_panel — (col_rows × cout_g) · (cout_g × N·ohw).
    tensor::gemm_at_b(static_cast<std::size_t>(col_rows),
                      static_cast<std::size_t>(n * ohw),
                      static_cast<std::size_t>(cout_g), 1.0f, wgt,
                      dy_panel.data(), 0.0f, dcols.data());

    // Each sample's image-gradient slab is disjoint, so the gather +
    // col2im scatter runs per sample in parallel too.
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t si) {
      const long s = static_cast<long>(si);
      tensor::Scratch sample_dcols =
          tensor::Workspace::tls().take(static_cast<std::size_t>(col_rows * ohw));
      for (long r = 0; r < col_rows; ++r) {
        std::copy(dcols.data() + r * n * ohw + s * ohw,
                  dcols.data() + r * n * ohw + (s + 1) * ohw,
                  sample_dcols.data() + r * ohw);
      }
      float* img_grad = dx.data() + ((s * in_channels_ + g * cin_g) * h * w);
      tensor::col2im(sample_dcols.data(), geom, img_grad);
    });
  }

  if (has_bias_) {
    for (long s = 0; s < n; ++s) {
      for (long c = 0; c < out_channels_; ++c) {
        const float* grad_out = dy.data() + ((s * out_channels_ + c) * ohw);
        float acc = 0.0f;
        for (long i = 0; i < ohw; ++i) acc += grad_out[i];
        bias_.grad.at(c) += acc;
      }
    }
  }
  return dx;
}

void Conv2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

long Conv2d::macs(long in_h, long in_w) const {
  ConvGeom geom{in_channels_ / groups_, in_h, in_w, kernel_, stride_, pad_};
  const long out_spatial = geom.out_h() * geom.out_w();
  return out_channels_ * (in_channels_ / groups_) * kernel_ * kernel_ *
         out_spatial;
}

}  // namespace hsconas::nn
