// Unit tests for src/tensor: matrix storage and the gemv kernels.
#include <gtest/gtest.h>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace wnf {
namespace {

TEST(Matrix, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (double v : m.flat()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 1.5);
  for (double v : m.flat()) EXPECT_EQ(v, 1.5);
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RowViewIsMutable) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_EQ(m(1, 2), 9.0);
}

TEST(Matrix, MaxAbs) {
  Matrix m{{1.0, -7.0}, {3.0, 4.0}};
  EXPECT_EQ(m.max_abs(), 7.0);
  EXPECT_EQ(Matrix().max_abs(), 0.0);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Matrix, ApproxEqual) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0 + 1e-9}};
  EXPECT_TRUE(a.approx_equal(b, 1e-8));
  EXPECT_FALSE(a.approx_equal(b, 1e-10));
  EXPECT_FALSE(a.approx_equal(Matrix(2, 1), 1.0));
}

TEST(Matrix, Transposed) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t(0, 0), 1.0);
}

TEST(Ops, GemvKnownValues) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<double> x{5.0, 6.0};
  std::vector<double> y(2);
  gemv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Ops, GemvTransposedMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a(7, 5);
  for (double& v : a.flat()) v = rng.normal();
  std::vector<double> x(7);
  for (double& v : x) v = rng.normal();
  std::vector<double> expect(5);
  gemv(a.transposed(), x, expect);
  std::vector<double> got(5);
  gemv_transposed(a, x, got);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(got[i], expect[i], 1e-12);
}

TEST(Ops, Rank1Update) {
  Matrix a(2, 2, 1.0);
  std::vector<double> x{1.0, 2.0};
  std::vector<double> y{3.0, 4.0};
  rank1_update(a, 0.5, x, y);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0 + 0.5 * 2.0 * 4.0);
}

TEST(Ops, DotAxpyNormMax) {
  std::vector<double> x{1.0, -2.0, 3.0};
  std::vector<double> y{4.0, 5.0, -6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 - 18.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(max_abs(x), 3.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
}

}  // namespace
}  // namespace wnf
