#pragma once

#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/arch.h"
#include "core/latency_model.h"
#include "core/objective.h"
#include "core/search_space.h"

namespace hsconas::util {
class ThreadPool;
}

namespace hsconas::core {

/// Accuracy oracle used by the search components: the proxy pipeline plugs
/// in supernet evaluation, the paper-scale benches plug in the calibrated
/// surrogate.
using AccuracyFn = std::function<double(const Arch&)>;

/// The accuracy oracle the shrinker and the EA call: one accuracy per arch,
/// in input order, for a whole subspace set or generation at once. A batch
/// oracle (the proxy pipeline's Supernet::evaluate) can share work across
/// the archs it is given. Any per-arch functor converts implicitly and is
/// then called once per arch, across `pool` when one is passed — the
/// parallel_eval contract of the search components. A batch oracle gets
/// the whole span and ignores `pool`.
class BatchAccuracyFn {
 public:
  using Batch = std::function<std::vector<double>(std::span<const Arch>)>;

  BatchAccuracyFn() = default;

  /// Per-arch oracle: an AccuracyFn, a lambda, a function pointer.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BatchAccuracyFn> &&
             std::is_invocable_r_v<double, F&, const Arch&>)
  BatchAccuracyFn(F fn)  // implicit: per-arch functors convert
      : per_arch_(std::move(fn)) {}

  /// Whole-batch oracle.
  static BatchAccuracyFn batched(Batch fn);

  explicit operator bool() const { return per_arch_ || batch_; }

  std::vector<double> operator()(std::span<const Arch> archs,
                                 util::ThreadPool* pool = nullptr) const;

 private:
  AccuracyFn per_arch_;
  Batch batch_;
};

/// Progressive space shrinking (§III-C).
///
/// For a target layer l, every allowed operator k defines a subspace
/// A_sub(l, k) = { arch : opˡ = k }. Its quality (Definition 1) is the mean
/// objective F over N uniform samples. The best operator is then *fixed*
/// for that layer, and evaluation proceeds to the previous layer — back to
/// front, so when layer l is scored, all deeper layers are already fixed,
/// exactly as the paper prescribes ("when evaluating the 19-th layer, we
/// fix the operator of the 20-th layer").
class SpaceShrinker {
 public:
  struct Config {
    int samples_per_subspace = 100;  ///< N of Definition 1
    std::uint64_t seed = 77;
    /// Score a per-arch accuracy functor's samples concurrently. The archs
    /// are drawn serially first (fixed RNG order) and each mean is reduced
    /// in index order, so the result is bit-identical to serial execution
    /// — but the functor must be thread-safe (see EvolutionSearch's
    /// parallel_eval for which functors qualify).
    bool parallel_eval = false;
    /// Pool for parallel_eval; nullptr means util::ThreadPool::global().
    util::ThreadPool* pool = nullptr;
  };

  /// The space is mutated in place by shrink operations.
  SpaceShrinker(SearchSpace& space, BatchAccuracyFn accuracy,
                const LatencyModel& latency, Objective objective,
                Config config);

  struct LayerDecision {
    int layer = 0;
    int chosen_op = 0;
    std::vector<double> quality;  ///< Q per candidate op (index-aligned)
    int subspaces_evaluated = 0;
  };

  /// Shrink one layer: evaluate all allowed ops, fix the best. The N
  /// samples of every subspace are drawn first (subspace by subspace, in
  /// op order), scored in one accuracy call, and each quality Q(A_sub)
  /// (Definition 1) is reduced in sample order.
  LayerDecision shrink_layer(int layer);

  /// Shrink a back-to-front run of `count` layers starting at `from_layer`
  /// (inclusive, descending) — one paper "stage" is (L-1 .. L-4).
  std::vector<LayerDecision> shrink_stage(int from_layer, int count);

  /// Total subspaces evaluated so far (the §III-C complexity argument:
  /// 5 × 4 per stage instead of 5⁴).
  int total_subspaces_evaluated() const { return total_evaluated_; }

  /// Checkpoint/resume: the shrinker's only cross-stage state is its RNG
  /// stream and the evaluation counter (decisions live in the space and
  /// the pipeline result). Restoring makes the next shrink_stage() draw
  /// the exact samples an uninterrupted run would.
  void export_state(util::ByteWriter& out) const;
  void import_state(util::ByteReader& in);

 private:
  SearchSpace& space_;
  BatchAccuracyFn accuracy_;
  const LatencyModel& latency_;
  Objective objective_;
  Config config_;
  util::Rng rng_;
  int total_evaluated_ = 0;
};

}  // namespace hsconas::core
