#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace hsconas::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.ndim(), 4u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(3), 5);
  EXPECT_EQ(t.shape_str(), "(2, 3, 4, 5)");
  EXPECT_THROW(t.dim(4), InternalError);
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({2, -1}), InvalidArgument);
}

TEST(Tensor, AtIndexingRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.flat()[5], 7.0f);
  Tensor u({2, 2, 2, 2});
  u.at(1, 1, 1, 1) = 3.0f;
  EXPECT_EQ(u.flat()[15], 3.0f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at(2, 0), InternalError);
  EXPECT_THROW(t.at(0, 3), InternalError);
  EXPECT_THROW(t.at(5), InternalError);  // wrong arity
}

TEST(Tensor, FullAndOnes) {
  const Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t.at(0), 2.5f);
  const Tensor o = Tensor::ones({2, 2});
  EXPECT_EQ(o.sum(), 4.0f);
}

TEST(Tensor, RandomFactoriesRespectBounds) {
  util::Rng rng(1);
  const Tensor u = Tensor::uniform({1000}, -2.0f, 3.0f, rng);
  for (float v : u.flat()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
  const Tensor n = Tensor::normal({10000}, 1.0f, 0.5f, rng);
  EXPECT_NEAR(n.mean(), 1.0f, 0.05f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (long i = 0; i < 6; ++i) t.flat()[static_cast<std::size_t>(i)] = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), InvalidArgument);
}

TEST(Tensor, InPlaceArithmetic) {
  Tensor a = Tensor::full({4}, 2.0f);
  Tensor b = Tensor::full({4}, 3.0f);
  a.add_(b);
  EXPECT_EQ(a.at(0), 5.0f);
  a.hadamard_(b);
  EXPECT_EQ(a.at(3), 15.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a.add_(b), InvalidArgument);
  EXPECT_THROW(a.hadamard_(b), InvalidArgument);
}

TEST(Tensor, Reductions) {
  Tensor t({3});
  t.at(0) = -4.0f;
  t.at(1) = 3.0f;
  t.at(2) = 1.0f;
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.0f);
}

TEST(Tensor, AllFiniteDetectsNanInf) {
  Tensor t({2});
  EXPECT_TRUE(t.all_finite());
  t.at(0) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.all_finite());
  t.at(0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, DeepCopySemantics) {
  Tensor a = Tensor::full({2}, 1.0f);
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

}  // namespace
}  // namespace hsconas::tensor
