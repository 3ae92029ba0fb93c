#include "gemm.h"

#include <algorithm>

#include "common/parallel.h"
#include "kernels/kernels.h"

namespace pimdl {

Tensor
gemmNaive(const Tensor &a, const Tensor &b)
{
    PIMDL_REQUIRE(a.cols() == b.rows(), "gemm inner dim mismatch");
    Tensor c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const float av = a(i, k);
            const float *brow = b.rowPtr(k);
            float *crow = c.rowPtr(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

namespace {

/// Fewest rows gemm() spreads over the pool; smaller ones stay inline.
constexpr std::size_t kMinParallelRows = 128;

/** Rows [row_begin, row_end) of C = A * B in one GEMM tile call. */
void
gemmRows(const Tensor &a, const Tensor &b, Tensor &c, std::size_t row_begin,
         std::size_t row_end)
{
    kernels::best().gemm_f32(a.rowPtr(row_begin), a.cols(), b.data(),
                             b.cols(), c.rowPtr(row_begin), c.cols(),
                             row_end - row_begin, b.cols(), a.cols());
}

} // namespace

Tensor
gemm(const Tensor &a, const Tensor &b)
{
    PIMDL_REQUIRE(a.cols() == b.rows(), "gemm inner dim mismatch");
    Tensor c(a.rows(), b.cols());
    kernels::recordGemmWork(a.rows(), b.cols(), a.cols());

    const std::size_t shards = parallelWorkerCount();
    if (shards <= 1 || a.rows() < kMinParallelRows) {
        gemmRows(a, b, c, 0, a.rows());
        return c;
    }

    const std::size_t rows_per_shard = (a.rows() + shards - 1) / shards;
    parallelFor(shards, [&](std::size_t s) {
        const std::size_t begin = s * rows_per_shard;
        const std::size_t end = std::min(a.rows(), begin + rows_per_shard);
        if (begin < end)
            gemmRows(a, b, c, begin, end);
    });
    return c;
}

Tensor
gemmBias(const Tensor &a, const Tensor &b, const std::vector<float> &bias)
{
    PIMDL_REQUIRE(bias.size() == b.cols(), "bias length mismatch");
    Tensor c = gemm(a, b);
    for (std::size_t i = 0; i < c.rows(); ++i) {
        float *crow = c.rowPtr(i);
        for (std::size_t j = 0; j < c.cols(); ++j)
            crow[j] += bias[j];
    }
    return c;
}

double
gemmFlops(std::size_t n, std::size_t h, std::size_t f)
{
    return 2.0 * static_cast<double>(n) * static_cast<double>(h) *
           static_cast<double>(f);
}

} // namespace pimdl
