/** @file Tests for elementwise / row-wise tensor operators. */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/ops.h"

namespace pimdl {
namespace {

TEST(Ops, AddElementwise)
{
    Tensor a(1, 3, {1, 2, 3});
    Tensor b(1, 3, {10, 20, 30});
    Tensor c = add(a, b);
    EXPECT_FLOAT_EQ(c(0, 2), 33.0f);
}

TEST(Ops, AddInPlace)
{
    Tensor a(1, 2, {1, 2});
    Tensor b(1, 2, {5, 5});
    addInPlace(a, b);
    EXPECT_FLOAT_EQ(a(0, 0), 6.0f);
    EXPECT_FLOAT_EQ(a(0, 1), 7.0f);
}

TEST(Ops, ReluClampsNegatives)
{
    Tensor x(1, 4, {-1.0f, 0.0f, 2.0f, -3.0f});
    Tensor y = relu(x);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(y(0, 3), 0.0f);
}

TEST(Ops, GeluKnownValues)
{
    Tensor x(1, 3, {0.0f, 1.0f, -1.0f});
    Tensor y = gelu(x);
    EXPECT_NEAR(y(0, 0), 0.0f, 1e-6f);
    EXPECT_NEAR(y(0, 1), 0.8412f, 1e-3f);
    EXPECT_NEAR(y(0, 2), -0.1588f, 1e-3f);
}

TEST(Ops, GeluGradMatchesFiniteDifference)
{
    Rng rng(5);
    Tensor x(1, 16);
    x.fillGaussian(rng);
    Tensor g = geluGrad(x);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        Tensor xp = x, xm = x;
        xp.data()[i] += eps;
        xm.data()[i] -= eps;
        const float fd =
            (gelu(xp).data()[i] - gelu(xm).data()[i]) / (2.0f * eps);
        EXPECT_NEAR(g.data()[i], fd, 1e-2f);
    }
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(9);
    Tensor x(6, 10);
    x.fillGaussian(rng, 0.0f, 3.0f);
    Tensor p = softmaxRows(x);
    for (std::size_t r = 0; r < p.rows(); ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < p.cols(); ++c) {
            EXPECT_GE(p(r, c), 0.0f);
            sum += p(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, SoftmaxIsShiftInvariant)
{
    Tensor x(1, 3, {1.0f, 2.0f, 3.0f});
    Tensor y(1, 3, {101.0f, 102.0f, 103.0f});
    EXPECT_LT(maxAbsDiff(softmaxRows(x), softmaxRows(y)), 1e-5f);
}

TEST(Ops, SoftmaxHandlesLargeMagnitudes)
{
    Tensor x(1, 2, {1000.0f, -1000.0f});
    Tensor p = softmaxRows(x);
    EXPECT_NEAR(p(0, 0), 1.0f, 1e-6f);
    EXPECT_NEAR(p(0, 1), 0.0f, 1e-6f);
}

TEST(Ops, LayerNormZeroMeanUnitVar)
{
    Rng rng(11);
    Tensor x(4, 32);
    x.fillGaussian(rng, 3.0f, 2.0f);
    std::vector<float> gamma(32, 1.0f), beta(32, 0.0f);
    Tensor y = layerNormRows(x, gamma, beta);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        double sum = 0.0, sq = 0.0;
        for (std::size_t c = 0; c < y.cols(); ++c) {
            sum += y(r, c);
            sq += static_cast<double>(y(r, c)) * y(r, c);
        }
        EXPECT_NEAR(sum / y.cols(), 0.0, 1e-4);
        EXPECT_NEAR(sq / y.cols(), 1.0, 1e-2);
    }
}

TEST(Ops, LayerNormAffine)
{
    Tensor x(1, 2, {1.0f, -1.0f});
    std::vector<float> gamma{2.0f, 2.0f}, beta{5.0f, 5.0f};
    Tensor y = layerNormRows(x, gamma, beta);
    EXPECT_NEAR(y(0, 0), 5.0f + 2.0f, 1e-3f);
    EXPECT_NEAR(y(0, 1), 5.0f - 2.0f, 1e-3f);
}

TEST(Ops, RowParallelOpsMatchRowByRow)
{
    // gelu (both overloads), layerNormRows and softmaxRows split rows
    // across workers in blocks; every row must come out bit-identical
    // to the same row computed alone, below, at and above the block
    // grain (softmax's 37-column grain is 110 rows).
    const std::size_t cols = 37;
    Rng rng(17);
    std::vector<float> gamma(cols), beta(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        gamma[c] = rng.gaussian();
        beta[c] = rng.gaussian();
    }
    for (std::size_t rows : {1u, 63u, 64u, 65u, 110u, 111u, 1024u}) {
        Tensor x(rows, cols);
        x.fillGaussian(rng, 0.0f, 3.0f);
        const Tensor g = gelu(x);
        const Tensor ln = layerNormRows(x, gamma, beta);
        const Tensor sm = softmaxRows(x);
        // The in-place overload computes the same bits.
        const Tensor g_in_place = gelu(Tensor(x));
        ASSERT_EQ(std::memcmp(g.data(), g_in_place.data(),
                              g.size() * sizeof(float)),
                  0)
            << "in-place gelu rows=" << rows;
        for (std::size_t r = 0; r < rows; ++r) {
            Tensor row(1, cols);
            std::memcpy(row.rowPtr(0), x.rowPtr(r), cols * sizeof(float));
            const Tensor g1 = gelu(row);
            const Tensor ln1 = layerNormRows(row, gamma, beta);
            const Tensor sm1 = softmaxRows(row);
            ASSERT_EQ(std::memcmp(g.rowPtr(r), g1.rowPtr(0),
                                  cols * sizeof(float)),
                      0)
                << "gelu rows=" << rows << " r=" << r;
            ASSERT_EQ(std::memcmp(ln.rowPtr(r), ln1.rowPtr(0),
                                  cols * sizeof(float)),
                      0)
                << "layernorm rows=" << rows << " r=" << r;
            ASSERT_EQ(std::memcmp(sm.rowPtr(r), sm1.rowPtr(0),
                                  cols * sizeof(float)),
                      0)
                << "softmax rows=" << rows << " r=" << r;
        }
    }
}

TEST(Ops, ArgmaxRows)
{
    Tensor x(2, 3, {1, 5, 2, 9, 0, 3});
    auto idx = argmaxRows(x);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 0u);
}

TEST(Ops, ScaleAndMean)
{
    Tensor x(1, 4, {1, 2, 3, 4});
    Tensor y = scale(x, 2.0f);
    EXPECT_FLOAT_EQ(y(0, 3), 8.0f);
    EXPECT_FLOAT_EQ(mean(x), 2.5f);
}

} // namespace
} // namespace pimdl
