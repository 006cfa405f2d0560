#include "nn/batchnorm.h"

#include <cmath>

#include "nn/op_profile.h"

namespace hsconas::nn {

using tensor::Tensor;

namespace {

/// Channels whose sums accumulate together. Each channel's sum is one
/// serial chain of n·h·w double adds, so one channel at a time runs at add
/// latency; eight independent chains cover it.
constexpr long kBnChannelBlock = 8;

/// Mean and variance of the B channels starting at `x` (sample 0), each
/// chain in (sample, pixel) order.
template <long B>
void block_stats(const float* x, long n, long channels, long spatial,
                 double* mean, double* var) {
  const double count = static_cast<double>(n * spatial);
  double m[B] = {};
  for (long s = 0; s < n; ++s) {
    const float* chan = x + s * channels * spatial;
    for (long i = 0; i < spatial; ++i) {
      for (long b = 0; b < B; ++b) m[b] += chan[b * spatial + i];
    }
  }
  for (long b = 0; b < B; ++b) m[b] /= count;
  double v[B] = {};
  for (long s = 0; s < n; ++s) {
    const float* chan = x + s * channels * spatial;
    for (long i = 0; i < spatial; ++i) {
      for (long b = 0; b < B; ++b) {
        const double d = chan[b * spatial + i] - m[b];
        v[b] += d * d;
      }
    }
  }
  for (long b = 0; b < B; ++b) {
    mean[b] = m[b];
    var[b] = v[b] / count;  // biased, as in standard BN forward
  }
}

/// Σ dy and Σ dy·x̂ of the B channels starting at `dy` and `xhat`.
template <long B>
void block_grad_sums(const float* dy, const float* xhat, long n,
                     long channels, long spatial, double* sum_dy,
                     double* sum_dy_xhat) {
  double sd[B] = {}, sdx[B] = {};
  for (long s = 0; s < n; ++s) {
    const float* grad = dy + s * channels * spatial;
    const float* xh = xhat + s * channels * spatial;
    for (long i = 0; i < spatial; ++i) {
      for (long b = 0; b < B; ++b) {
        const float g = grad[b * spatial + i];
        sd[b] += g;
        sdx[b] += static_cast<double>(g) * xh[b * spatial + i];
      }
    }
  }
  for (long b = 0; b < B; ++b) {
    sum_dy[b] = sd[b];
    sum_dy_xhat[b] = sdx[b];
  }
}

/// Runs `block.template operator()<B>(c)` over the channels: whole
/// blocks of kBnChannelBlock, then the tail one channel at a time.
template <typename Fn>
void for_channel_blocks(long channels, Fn&& block) {
  long c = 0;
  for (; c + kBnChannelBlock <= channels; c += kBnChannelBlock) {
    block.template operator()<kBnChannelBlock>(c);
  }
  for (; c < channels; ++c) block.template operator()<1>(c);
}

}  // namespace

namespace detail {

void bn_batch_stats(const float* x, long n, long channels, long spatial,
                    double* mean, double* var) {
  for_channel_blocks(channels, [&]<long B>(long c) {
    block_stats<B>(x + c * spatial, n, channels, spatial, mean + c, var + c);
  });
}

void bn_grad_sums(const float* dy, const float* xhat, long n, long channels,
                  long spatial, double* sum_dy, double* sum_dy_xhat) {
  for_channel_blocks(channels, [&]<long B>(long c) {
    block_grad_sums<B>(dy + c * spatial, xhat + c * spatial, n, channels,
                       spatial, sum_dy + c, sum_dy_xhat + c);
  });
}

}  // namespace detail

BatchNorm2d::BatchNorm2d(long channels, double momentum, double eps,
                         std::string display_name)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      display_name_(std::move(display_name)),
      gamma_(display_name_ + ".gamma", Tensor::ones({channels}),
             /*decay=*/false),
      beta_(display_name_ + ".beta", Tensor({channels}), /*decay=*/false),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {
  if (channels <= 0) throw InvalidArgument("BatchNorm2d: channels <= 0");
}

void BatchNorm2d::reset_running_stats() {
  running_mean_.zero();
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  // ~4 ops/element (subtract, scale, gamma, beta); stats passes push the
  // traffic above the plain read+write default.
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("bn", "eltwise", x, 4.0, 12.0);
  });
  if (x.ndim() != 4 || x.dim(1) != channels_) {
    throw InvalidArgument("BatchNorm2d " + display_name_ +
                          ": bad input shape " + x.shape_str());
  }
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long spatial = h * w;

  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
  cached_n_ = n;
  cached_h_ = h;
  cached_w_ = w;
  sums_.resize(static_cast<std::size_t>(2 * channels_));
  double* batch_mean = sums_.data();
  double* batch_var = batch_mean + channels_;
  if (training_) {
    detail::bn_batch_stats(x.data(), n, channels_, spatial, batch_mean,
                           batch_var);
  }

  for (long c = 0; c < channels_; ++c) {
    double mean = 0.0, var = 0.0;
    if (training_) {
      mean = batch_mean[c];
      var = batch_var[c];
      running_mean_.at(c) = static_cast<float>(
          (1.0 - momentum_) * running_mean_.at(c) + momentum_ * mean);
      running_var_.at(c) = static_cast<float>(
          (1.0 - momentum_) * running_var_.at(c) + momentum_ * var);
    } else {
      mean = running_mean_.at(c);
      var = running_var_.at(c);
    }

    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    cached_inv_std_[static_cast<std::size_t>(c)] = inv_std;
    const float g = gamma_.value.at(c), b = beta_.value.at(c);
    const float fm = static_cast<float>(mean);
    for (long s = 0; s < n; ++s) {
      const float* chan = x.data() + ((s * channels_ + c) * spatial);
      float* xhat = cached_xhat_.data() + ((s * channels_ + c) * spatial);
      float* out = y.data() + ((s * channels_ + c) * spatial);
      for (long i = 0; i < spatial; ++i) {
        const float xh = (chan[i] - fm) * inv_std;
        xhat[i] = xh;
        out[i] = g * xh + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("bn.bwd", "eltwise", dy, 8.0, 16.0);
  });
  HSCONAS_CHECK_MSG(!cached_xhat_.empty(),
                    "BatchNorm2d::backward before forward");
  const long n = cached_n_, h = cached_h_, w = cached_w_;
  const long spatial = h * w;
  const double count = static_cast<double>(n * spatial);
  HSCONAS_CHECK_MSG(dy.ndim() == 4 && dy.dim(0) == n &&
                        dy.dim(1) == channels_ && dy.dim(2) == h &&
                        dy.dim(3) == w,
                    "BatchNorm2d::backward: dy shape mismatch");

  Tensor dx(dy.shape());
  sums_.resize(static_cast<std::size_t>(2 * channels_));
  double* sums_dy = sums_.data();
  double* sums_dy_xhat = sums_dy + channels_;
  detail::bn_grad_sums(dy.data(), cached_xhat_.data(), n, channels_, spatial,
                       sums_dy, sums_dy_xhat);
  for (long c = 0; c < channels_; ++c) {
    const double sum_dy = sums_dy[c], sum_dy_xhat = sums_dy_xhat[c];
    gamma_.grad.at(c) += static_cast<float>(sum_dy_xhat);
    beta_.grad.at(c) += static_cast<float>(sum_dy);

    const float g = gamma_.value.at(c);
    const float inv_std = cached_inv_std_[static_cast<std::size_t>(c)];
    const float mean_dy = static_cast<float>(sum_dy / count);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);

    for (long s = 0; s < n; ++s) {
      const float* grad = dy.data() + ((s * channels_ + c) * spatial);
      const float* xhat =
          cached_xhat_.data() + ((s * channels_ + c) * spatial);
      float* out = dx.data() + ((s * channels_ + c) * spatial);
      if (training_) {
        for (long i = 0; i < spatial; ++i) {
          out[i] = g * inv_std *
                   (grad[i] - mean_dy - xhat[i] * mean_dy_xhat);
        }
      } else {
        for (long i = 0; i < spatial; ++i) out[i] = g * inv_std * grad[i];
      }
    }
  }
  return dx;
}

void BatchNorm2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

}  // namespace hsconas::nn
