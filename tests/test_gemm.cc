/** @file GEMM tests: the row-sharded tile GEMM vs the naive oracle. */

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/gemm.h"

namespace pimdl {
namespace {

TEST(Gemm, TinyKnownResult)
{
    Tensor a(2, 2, {1, 2, 3, 4});
    Tensor b(2, 2, {5, 6, 7, 8});
    Tensor c = gemmNaive(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Gemm, IdentityIsNoOp)
{
    Rng rng(7);
    Tensor a(5, 5);
    a.fillGaussian(rng);
    Tensor eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye(i, i) = 1.0f;
    EXPECT_LT(maxAbsDiff(gemm(a, eye), a), 1e-6f);
}

TEST(Gemm, InnerDimMismatchThrows)
{
    Tensor a(2, 3), b(4, 2);
    EXPECT_THROW(gemm(a, b), std::runtime_error);
}

TEST(Gemm, BiasBroadcast)
{
    Tensor a(2, 2, {1, 0, 0, 1});
    Tensor b(2, 2, {1, 2, 3, 4});
    Tensor c = gemmBias(a, b, {10.0f, 20.0f});
    EXPECT_FLOAT_EQ(c(0, 0), 11.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 13.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 24.0f);
}

TEST(Gemm, BiasLengthChecked)
{
    Tensor a(2, 2), b(2, 2);
    EXPECT_THROW(gemmBias(a, b, {1.0f}), std::runtime_error);
}

TEST(Gemm, FlopCount)
{
    EXPECT_DOUBLE_EQ(gemmFlops(2, 3, 4), 48.0);
}

/**
 * Property sweep: the row-sharded tile GEMM is bit-identical to the
 * naive oracle (same per-element order, no FMA), inline and sharded.
 */
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(GemmShapeTest, BlockedMatchesNaive)
{
    const auto [n, h, f] = GetParam();
    Rng rng(static_cast<std::uint64_t>(n * 1000 + h * 10 + f));
    Tensor a(n, h), b(h, f);
    a.fillGaussian(rng);
    b.fillGaussian(rng);
    const Tensor ref = gemmNaive(a, b);
    const Tensor got = gemm(a, b);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          got.size() * sizeof(float)),
              0)
        << "shape (" << n << "," << h << "," << f << ") max diff "
        << maxAbsDiff(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(17, 33, 9), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 130),
                      std::make_tuple(128, 96, 72),
                      std::make_tuple(200, 64, 1),
                      std::make_tuple(128, 64, 128),
                      std::make_tuple(128, 128, 64),
                      std::make_tuple(16, 64, 16),
                      std::make_tuple(130, 3072, 20)));

} // namespace
} // namespace pimdl
