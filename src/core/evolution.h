#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/arch.h"
#include "core/energy_model.h"
#include "core/latency_model.h"
#include "core/objective.h"
#include "core/space_shrinking.h"  // BatchAccuracyFn

namespace hsconas::util {
class ThreadPool;
}

namespace hsconas::core {

/// Latency memo keyed by Arch::hash(), made collision-safe by storing the
/// genome each value was computed for: lookup() verifies the stored arch
/// matches, so a hash collision falls through to a fresh prediction
/// instead of silently returning another architecture's latency.
class ArchLatencyMemo {
 public:
  /// True (and *ms set) only when `key` maps to exactly `arch`.
  bool lookup(std::uint64_t key, const Arch& arch, double* ms) const {
    const auto it = map_.find(key);
    if (it == map_.end() || !(it->second.first == arch)) return false;
    *ms = it->second.second;
    return true;
  }
  /// First writer wins on collision (the colliding arch just stays
  /// unmemoized — correctness over hit rate).
  void store(std::uint64_t key, const Arch& arch, double ms) {
    map_.emplace(key, std::make_pair(arch, ms));
  }
  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::pair<Arch, double>> map_;
};

/// Evolutionary architecture search (§III-D, Eq. 5): generational EA over
/// {opˡ, cˡ} genomes with top-k parent selection, uniform crossover and
/// per-layer mutation at both the operator and the channel level. Paper
/// defaults: 20 generations, population 50, 20 parents, pc = pm = 0.25.
///
/// Candidate evaluation is batched per generation: offspring genomes are
/// bred serially (all RNG decisions happen on one thread, in a fixed
/// order) and then scored through one accuracy call — a batch oracle sees
/// the whole generation, a per-arch functor runs inline or across a thread
/// pool. Each candidate's accuracy depends only on its arch, so the result
/// is bit-identical to one-by-one serial scoring for a fixed seed — same
/// Result.best, same per_generation stats — regardless of worker count.
class EvolutionSearch {
 public:
  struct Config {
    int generations = 20;
    int population = 50;
    int parents = 20;
    double crossover_prob = 0.25;
    double mutation_prob = 0.25;
    /// Per-layer gene resample probability once an arch is selected for
    /// mutation (so mutation changes a couple of layers, not all 20).
    double gene_mutation_prob = 0.1;
    std::uint64_t seed = 99;
    /// Call a per-arch accuracy functor concurrently via the thread pool.
    /// Requires the functor to be safe to call from multiple threads at
    /// once — true for the pure AccuracySurrogate, NOT true for
    /// supernet/trainer-backed functors, which mutate module state on
    /// every forward pass. A batch oracle ignores it.
    bool parallel_eval = false;
    /// Pool for parallel_eval; nullptr means util::ThreadPool::global().
    util::ThreadPool* pool = nullptr;
  };

  struct Candidate {
    Arch arch;
    double accuracy = 0.0;
    double latency_ms = 0.0;
    double energy_mj = 0.0;  ///< 0 unless an EnergyModel was supplied
    double score = -1e300;   ///< F(arch, T)
  };

  struct GenerationStats {
    int generation = 0;
    double best_score = 0.0;
    double mean_score = 0.0;
    double best_latency_ms = 0.0;  ///< latency of the best candidate
    double best_accuracy = 0.0;
  };

  struct Result {
    Candidate best;
    std::vector<GenerationStats> per_generation;
    /// Every distinct candidate evaluated during the search (for the
    /// Fig. 6 latency histogram).
    std::vector<Candidate> evaluated;
  };

  EvolutionSearch(const SearchSpace& space, BatchAccuracyFn accuracy,
                  const LatencyModel& latency, Objective objective,
                  Config config);

  /// Energy-aware variant (§V extension): candidates are additionally
  /// priced by the energy model and scored with the γ term of Objective.
  EvolutionSearch(const SearchSpace& space, BatchAccuracyFn accuracy,
                  const LatencyModel& latency, const EnergyModel& energy,
                  Objective objective, Config config);

  /// Called after the initial population is scored (generation == -1) and
  /// after every completed generation (0-based index) — the checkpoint
  /// hook: at each call the search's exported state is a consistent
  /// boundary a resumed run can continue from deterministically.
  using GenerationCallback = std::function<void(int generation)>;

  /// Run (or, after import_state, continue) the search to completion.
  /// Bit-identical to an uninterrupted run for a fixed seed regardless of
  /// how many export/import cycles happened at generation boundaries.
  Result run(const GenerationCallback& on_generation = nullptr);

  /// Generations fully completed so far (resume progress indicator).
  int generations_completed() const { return next_generation_; }

  /// Serialize/restore the full search state: RNG stream, dedup set,
  /// current population, and the result-so-far. The latency memo is NOT
  /// serialized — predictions are deterministic, so it refills on demand.
  void export_state(util::ByteWriter& out) const;
  void import_state(util::ByteReader& in);

 private:
  void init_population();
  void step_generation();
  /// Score a bred batch through one accuracy call, preserving index order.
  std::vector<Candidate> evaluate_batch(std::vector<Arch> archs);
  /// LatencyModel::predict_ms memoized via ArchLatencyMemo — repeat
  /// genotypes (elites, re-bred duplicates) never re-walk the LUT, and a
  /// hash collision falls through to a fresh prediction.
  double cached_latency_ms(const Arch& arch);
  Arch crossover(const Arch& a, const Arch& b);
  Arch mutate(Arch arch);

  const SearchSpace& space_;
  BatchAccuracyFn accuracy_;
  const LatencyModel& latency_;
  const EnergyModel* energy_ = nullptr;  ///< optional, non-owning
  Objective objective_;
  Config config_;
  util::Rng rng_;

  // ---- resumable run state (serialized by export_state) -------------------
  bool initialized_ = false;   ///< initial population bred & scored
  int next_generation_ = 0;    ///< generations completed so far
  std::vector<Candidate> population_;
  std::unordered_set<std::uint64_t> seen_;
  Result result_;

  ArchLatencyMemo latency_memo_;
  /// This search's own memo statistics (the registry counters aggregate
  /// across all searches in the process). Feeds the per-generation
  /// memo-hit-rate gauge.
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
};

}  // namespace hsconas::core
