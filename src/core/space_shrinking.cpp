#include "core/space_shrinking.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hsconas::core {

BatchAccuracyFn BatchAccuracyFn::batched(Batch fn) {
  BatchAccuracyFn out;
  out.batch_ = std::move(fn);
  return out;
}

std::vector<double> BatchAccuracyFn::operator()(std::span<const Arch> archs,
                                                util::ThreadPool* pool) const {
  if (batch_) {
    std::vector<double> acc = batch_(archs);
    HSCONAS_CHECK_MSG(acc.size() == archs.size(),
                      "BatchAccuracyFn: batch oracle returned " +
                          std::to_string(acc.size()) + " accuracies for " +
                          std::to_string(archs.size()) + " archs");
    return acc;
  }
  HSCONAS_CHECK_MSG(per_arch_ != nullptr, "BatchAccuracyFn: empty oracle");
  std::vector<double> acc(archs.size());
  const auto score_one = [&](std::size_t i) { acc[i] = per_arch_(archs[i]); };
  if (pool != nullptr && pool->size() > 1 && archs.size() > 1) {
    pool->parallel_for(archs.size(), score_one);
  } else {
    for (std::size_t i = 0; i < archs.size(); ++i) score_one(i);
  }
  return acc;
}

SpaceShrinker::SpaceShrinker(SearchSpace& space, BatchAccuracyFn accuracy,
                             const LatencyModel& latency, Objective objective,
                             Config config)
    : space_(space),
      accuracy_(std::move(accuracy)),
      latency_(latency),
      objective_(objective),
      config_(config),
      rng_(config.seed) {
  HSCONAS_CHECK_MSG(static_cast<bool>(accuracy_),
                    "SpaceShrinker: null accuracy fn");
  if (config_.samples_per_subspace < 1) {
    throw InvalidArgument("SpaceShrinker: samples_per_subspace must be >= 1");
  }
}

SpaceShrinker::LayerDecision SpaceShrinker::shrink_layer(int layer) {
  HSCONAS_TRACE_SCOPE("shrink.layer");
  static obs::Counter& q_samples = obs::counter("hsconas.shrink.q_samples");
  static obs::Counter& subspaces =
      obs::counter("hsconas.shrink.subspaces_scored");
  const std::vector<int> candidates = space_.allowed_ops(layer);
  HSCONAS_CHECK_MSG(!candidates.empty(), "shrink_layer: no candidates");

  // Q(A_sub) = (1/N) Σ F(arch_i, T),  arch_i ~ U(A_sub)   (Definition 1)
  // Every subspace's samples are drawn serially (one RNG stream, subspace
  // by subspace), scored in one accuracy call, and each mean is reduced in
  // index order, so the qualities do not depend on how the oracle batches
  // or parallelizes its work.
  const std::size_t n = static_cast<std::size_t>(config_.samples_per_subspace);
  std::vector<Arch> samples;
  samples.reserve(n * candidates.size());
  for (int op : candidates) {
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(Arch::random_with_fixed_op(space_, rng_, layer, op));
    }
  }
  util::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : util::ThreadPool::global();
  const std::vector<double> acc =
      accuracy_(samples, config_.parallel_eval ? &pool : nullptr);
  q_samples.add(samples.size());
  subspaces.add(candidates.size());

  LayerDecision decision;
  decision.layer = layer;
  decision.quality.reserve(candidates.size());
  double best_q = -1e300;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    double total = 0.0;
    for (std::size_t i = k * n; i < (k + 1) * n; ++i) {
      total += objective_.score(acc[i], latency_.predict_ms(samples[i]));
    }
    const double q = total / static_cast<double>(n);
    decision.quality.push_back(q);
    ++decision.subspaces_evaluated;
    ++total_evaluated_;
    if (q > best_q) {
      best_q = q;
      decision.chosen_op = candidates[k];
    }
  }
  space_.fix_op(layer, decision.chosen_op);
  HSCONAS_LOG_DEBUG << "shrink layer " << layer << " -> op "
                    << decision.chosen_op;
  return decision;
}

void SpaceShrinker::export_state(util::ByteWriter& out) const {
  out.rng_state(rng_.state());
  out.i32(total_evaluated_);
}

void SpaceShrinker::import_state(util::ByteReader& in) {
  rng_.set_state(in.rng_state());
  total_evaluated_ = in.i32();
}

std::vector<SpaceShrinker::LayerDecision> SpaceShrinker::shrink_stage(
    int from_layer, int count) {
  HSCONAS_TRACE_SCOPE("shrink.stage");
  if (from_layer < 0 || from_layer >= space_.num_layers() || count < 1 ||
      from_layer - count + 1 < 0) {
    throw InvalidArgument("shrink_stage: bad layer range");
  }
  std::vector<LayerDecision> decisions;
  decisions.reserve(static_cast<std::size_t>(count));
  for (int l = from_layer; l > from_layer - count; --l) {
    decisions.push_back(shrink_layer(l));
  }
  return decisions;
}

}  // namespace hsconas::core
