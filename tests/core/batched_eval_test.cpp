// Bit-identity contract of prefix-shared candidate scoring: a batched
// Supernet::evaluate call walks the archs in genome order, runs the stem
// once per validation batch and resumes each arch at its first layer that
// differs from the previously visited arch. Every accuracy must be
// memcmp-equal to scoring that arch alone, whatever the input order,
// duplicates, skip ops or operator family — and a proxy-mode Pipeline must
// record exactly the accuracies and scores of one-by-one scoring.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/supernet.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/serial.h"

namespace hsconas::core {
namespace {

constexpr std::size_t kBatch = 16;
constexpr std::size_t kEvalBatches = 2;

/// Matches SearchSpaceConfig::proxy(4, 8, ...): 4 classes, 8×8 images.
data::SyntheticDataset make_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.train_size = 64;
  cfg.val_size = 48;
  cfg.image_size = 8;
  cfg.seed = 21;
  return data::SyntheticDataset(cfg);
}

/// One-by-one reference: the one-element form of evaluate per arch.
std::vector<double> one_by_one(Supernet& net,
                               const data::SyntheticDataset& dataset,
                               const std::vector<Arch>& archs) {
  std::vector<double> acc;
  acc.reserve(archs.size());
  for (const Arch& arch : archs) {
    acc.push_back(net.evaluate(dataset, arch, kBatch, kEvalBatches));
  }
  return acc;
}

void expect_bit_identical(const std::vector<double>& batched,
                          const std::vector<double>& reference) {
  ASSERT_EQ(batched.size(), reference.size());
  EXPECT_EQ(std::memcmp(batched.data(), reference.data(),
                        batched.size() * sizeof(double)),
            0);
}

/// Random archs plus relatives that share a prefix with them (only the
/// tail genes resampled), exact duplicates, and a shuffled order.
std::vector<Arch> prefix_sharing_archs(const SearchSpace& space,
                                       util::Rng& rng, std::size_t roots) {
  std::vector<Arch> archs;
  const int L = space.num_layers();
  for (std::size_t r = 0; r < roots; ++r) {
    const Arch root = Arch::random(space, rng);
    archs.push_back(root);
    for (int keep = 1; keep < L; ++keep) {
      Arch child = root;
      for (int l = keep; l < L; ++l) {
        const auto li = static_cast<std::size_t>(l);
        child.ops[li] = rng.choice(space.allowed_ops(l));
        child.factors[li] = rng.choice(space.allowed_factors(l));
      }
      archs.push_back(std::move(child));
    }
  }
  archs.push_back(archs.front());
  archs.push_back(archs[archs.size() / 2]);
  for (std::size_t i = archs.size() - 1; i > 0; --i) {
    std::swap(archs[i], archs[rng.index(i + 1)]);
  }
  return archs;
}

std::uint64_t counter_value(const char* name) {
  return obs::counter(name).value();
}

TEST(BatchedEvaluate, MatchesOneByOneWithSharedPrefixesAndDuplicates) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 2));  // 6 layers
  const data::SyntheticDataset dataset = make_dataset();
  Supernet net(space, 11);
  util::Rng rng(3);
  const std::vector<Arch> archs = prefix_sharing_archs(space, rng, 4);

  const std::uint64_t forwards0 = counter_value("hsconas.supernet.forwards");
  const std::uint64_t run0 = counter_value("hsconas.supernet.blocks_run");
  const std::uint64_t reused0 =
      counter_value("hsconas.supernet.blocks_reused");
  const std::vector<double> batched =
      net.evaluate(dataset, archs, kBatch, kEvalBatches);
  const std::uint64_t forwards =
      counter_value("hsconas.supernet.forwards") - forwards0;
  const std::uint64_t run = counter_value("hsconas.supernet.blocks_run") - run0;
  const std::uint64_t reused =
      counter_value("hsconas.supernet.blocks_reused") - reused0;

  // One forward per (arch, batch); every depth (stem + L layers) is
  // either run or reused, and the shared prefixes are really reused.
  const std::uint64_t depths =
      static_cast<std::uint64_t>(space.num_layers()) + 1;
  EXPECT_EQ(forwards, archs.size() * kEvalBatches);
  EXPECT_EQ(run + reused, forwards * depths);
  EXPECT_GE(reused, (archs.size() - 1) * kEvalBatches);  // stem at least

  expect_bit_identical(batched, one_by_one(net, dataset, archs));

  // A permuted input order permutes the output and nothing else.
  std::vector<Arch> reversed(archs.rbegin(), archs.rend());
  std::vector<double> reversed_acc =
      net.evaluate(dataset, reversed, kBatch, kEvalBatches);
  std::reverse(reversed_acc.begin(), reversed_acc.end());
  expect_bit_identical(reversed_acc, batched);
}

TEST(BatchedEvaluate, StrideOneSkipReturnsItsInput) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 2));
  const data::SyntheticDataset dataset = make_dataset();
  Supernet net(space, 12);
  const nn::OpFamily family = space.config().family;
  int skip_op = -1;
  for (int op = 0; op < space.config().num_ops; ++op) {
    if (nn::family_op_is_skip(family, op)) skip_op = op;
  }
  ASSERT_GE(skip_op, 0);

  // Skip at every stride-1 layer, with relatives that differ only after
  // (or exactly at) a skip layer, so a skip output is both produced and
  // resumed from.
  ASSERT_EQ(space.layer(1).stride, 1);
  util::Rng rng(4);
  std::vector<Arch> archs;
  for (int variant = 0; variant < 6; ++variant) {
    Arch arch = Arch::random(space, rng);
    for (int l = 0; l < space.num_layers(); ++l) {
      if (space.layer(l).stride == 1 && (variant + l) % 2 == 0) {
        arch.ops[static_cast<std::size_t>(l)] = skip_op;
      }
    }
    archs.push_back(arch);
    Arch tail = arch;
    const auto last = static_cast<std::size_t>(space.num_layers() - 1);
    tail.ops[last] = skip_op == 0 ? 1 : 0;
    archs.push_back(tail);
  }
  expect_bit_identical(net.evaluate(dataset, archs, kBatch, kEvalBatches),
                       one_by_one(net, dataset, archs));
}

TEST(BatchedEvaluate, MatchesOneByOneForMbConvFamily) {
  const SearchSpace space(
      SearchSpaceConfig::proxy(4, 8, 2).with_family(nn::OpFamily::kMbConv));
  const data::SyntheticDataset dataset = make_dataset();
  Supernet net(space, 13);
  util::Rng rng(5);
  const std::vector<Arch> archs = prefix_sharing_archs(space, rng, 3);
  expect_bit_identical(net.evaluate(dataset, archs, kBatch, kEvalBatches),
                       one_by_one(net, dataset, archs));
}

TEST(BatchedEvaluate, StandaloneNetworkScoresRepeatsOfItsArch) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 1));
  const data::SyntheticDataset dataset = make_dataset();
  util::Rng rng(6);
  const Arch arch = Arch::random(space, rng);
  Supernet net(space, 14, arch);
  const std::vector<Arch> archs(3, arch);
  expect_bit_identical(net.evaluate(dataset, archs, kBatch, kEvalBatches),
                       one_by_one(net, dataset, archs));

  Arch other = arch;
  other.ops[0] = (arch.ops[0] + 1) % space.config().num_ops;
  const std::vector<Arch> mixed{arch, other};
  EXPECT_THROW(net.evaluate(dataset, mixed, kBatch, kEvalBatches),
               InvalidArgument);
}

TEST(BatchedEvaluate, EmptyBatchScoresNothing) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 1));
  const data::SyntheticDataset dataset = make_dataset();
  Supernet net(space, 15);
  EXPECT_TRUE(
      net.evaluate(dataset, std::span<const Arch>(), kBatch).empty());
}

TEST(BatchAccuracyFn, BatchOracleMustAnswerEveryArch) {
  const BatchAccuracyFn short_oracle = BatchAccuracyFn::batched(
      [](std::span<const Arch>) { return std::vector<double>{0.5}; });
  const std::vector<Arch> two(2);
  EXPECT_THROW(short_oracle(two), Error);
  EXPECT_FALSE(static_cast<bool>(BatchAccuracyFn()));
}

struct ScopedDir {
  explicit ScopedDir(const std::string& name)
      : path((std::filesystem::path(testing::TempDir()) / name).string()) {
    std::filesystem::remove_all(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  const std::string path;
};

TEST(BatchedEvaluate, ProxyPipelineRecordsOneByOneAccuraciesAndScores) {
  // The EA scores each generation in one prefix-shared call. Reload the
  // frozen supernet weights the EA used (the final checkpoint) and score
  // every recorded candidate alone: accuracy and score bits must agree.
  PipelineConfig cfg;
  cfg.space = SearchSpaceConfig::proxy(6, 12, 1);  // 3 layers
  cfg.device = "edge";
  cfg.constraint_ms = 1.2;
  cfg.use_surrogate = false;
  cfg.initial_epochs = 1;
  cfg.tune_epochs = 1;
  cfg.shrink_layers_per_stage = 1;
  cfg.shrink.samples_per_subspace = 4;
  cfg.evolution.generations = 3;
  cfg.evolution.population = 12;
  cfg.evolution.parents = 4;
  cfg.train.batch_size = 36;
  cfg.train.lr = 0.08;
  cfg.eval_batches = 2;
  cfg.seed = 3;
  ScopedDir dir("hsconas_batched_eval_pipeline");
  cfg.checkpoint_dir = dir.path;

  data::SyntheticConfig ds;
  ds.num_classes = 6;
  ds.train_size = 72;
  ds.val_size = 72;
  ds.image_size = 12;
  ds.seed = 8;
  const data::SyntheticDataset dataset(ds);

  Pipeline pipeline(cfg);
  const PipelineResult result = pipeline.run(&dataset);
  ASSERT_FALSE(result.evolution.evaluated.empty());

  Supernet net(pipeline.space(), 0);
  const CheckpointReader reader(Pipeline::checkpoint_path(dir.path));
  util::ByteReader params(reader.section("params"));
  read_parameters_payload(net.parameters(), params);

  const Objective objective{cfg.beta, result.constraint_ms};
  for (const EvolutionSearch::Candidate& c : result.evolution.evaluated) {
    const double acc = net.evaluate(dataset, c.arch, cfg.train.batch_size,
                                    cfg.eval_batches);
    const double score = objective.score(acc, c.latency_ms);
    EXPECT_EQ(std::memcmp(&acc, &c.accuracy, sizeof acc), 0)
        << c.arch.to_string(pipeline.space());
    EXPECT_EQ(std::memcmp(&score, &c.score, sizeof score), 0)
        << c.arch.to_string(pipeline.space());
  }
}

}  // namespace
}  // namespace hsconas::core
