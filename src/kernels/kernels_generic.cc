/**
 * @file
 * Portable vector implementation of the micro-kernel set using
 * GCC/Clang vector extensions. Compiled without ISA-specific flags,
 * so the compiler lowers the 8-lane vectors to whatever the build
 * baseline provides (paired SSE on stock x86-64, NEON on AArch64).
 *
 * Only the FP32 kernels whose lanes are independent output elements
 * are vectorized here (LUT gather-accumulate and the GEMM tile, where
 * per-element accumulation order is preserved by construction). The
 * CCS argmin reduction and the INT8 LUT accumulate delegate to the
 * scalar reference: vectorized through the build baseline they
 * measured no faster than scalar. This TU is built with
 * -ffp-contract=off so the c + a*b in the GEMM tile can never fuse
 * into an FMA on targets whose baseline has one — fusion would change
 * rounding and break the bit-exactness contract.
 */

#include <cstring>

#include "kernels/kernels_impl.h"

namespace pimdl {
namespace kernels {
namespace detail {

namespace {

typedef float V8f __attribute__((vector_size(32)));

V8f
loadF32(const float *p)
{
    V8f v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
storeF32(float *p, V8f v)
{
    std::memcpy(p, &v, sizeof(v));
}

void
genericLutAccumF32(const std::uint16_t *idx, std::size_t idx_stride,
                   std::size_t nrows, std::size_t cb_count,
                   std::size_t ct_count, const float *lut,
                   std::size_t f_dim, std::size_t col0,
                   std::size_t f_count, float *dst, std::size_t dst_stride)
{
    const std::size_t vec_end = f_count - f_count % 8;
    for (std::size_t r = 0; r < nrows; ++r) {
        const std::uint16_t *idx_row = idx + r * idx_stride;
        float *out = dst + r * dst_stride;
        for (std::size_t j = 0; j < f_count; ++j)
            out[j] = 0.0f;
        for (std::size_t cb = 0; cb < cb_count; ++cb) {
            const float *src =
                lut + (cb * ct_count + idx_row[cb]) * f_dim + col0;
            for (std::size_t j = 0; j < vec_end; j += 8)
                storeF32(out + j, loadF32(out + j) + loadF32(src + j));
            for (std::size_t j = vec_end; j < f_count; ++j)
                out[j] += src[j];
        }
    }
}

/**
 * GEMM tile kernel: 4 x 8 tiles whose four 8-lane sums stay in
 * registers over the whole k (eight XMM on a baseline x86-64), one
 * lane per c[i][j] in the scalar order; single rows and the last
 * n % 8 columns as in the scalar reference.
 */
void
genericGemmF32(const float *a, std::size_t lda, const float *b,
               std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
               std::size_t n, std::size_t k)
{
    const std::size_t n8 = n - n % 8;
    for (std::size_t j = 0; j < n8; j += 8) {
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            const float *a0 = a + i * lda;
            V8f c0 = {}, c1 = {}, c2 = {}, c3 = {};
            for (std::size_t p = 0; p < k; ++p) {
                const V8f bv = loadF32(b + p * ldb + j);
                c0 = c0 + a0[p] * bv;
                c1 = c1 + a0[lda + p] * bv;
                c2 = c2 + a0[2 * lda + p] * bv;
                c3 = c3 + a0[3 * lda + p] * bv;
            }
            storeF32(c + i * ldc + j, c0);
            storeF32(c + (i + 1) * ldc + j, c1);
            storeF32(c + (i + 2) * ldc + j, c2);
            storeF32(c + (i + 3) * ldc + j, c3);
        }
        for (; i < m; ++i) {
            V8f acc = {};
            for (std::size_t p = 0; p < k; ++p)
                acc = acc + a[i * lda + p] * loadF32(b + p * ldb + j);
            storeF32(c + i * ldc + j, acc);
        }
    }
    if (n > n8)
        scalarGemmF32(a, lda, b + n8, ldb, c + n8, ldc, m, n - n8, k);
}

} // namespace

const KernelTable &
genericTable()
{
    static const KernelTable table = {
        "generic",
        1,
        scalarCcsArgmin,
        genericLutAccumF32,
        scalarLutAccumI8,
        genericGemmF32,
    };
    return table;
}

} // namespace detail
} // namespace kernels
} // namespace pimdl
