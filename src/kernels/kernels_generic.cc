/**
 * @file
 * Portable vector implementation of the micro-kernel set using
 * GCC/Clang vector extensions. Compiled without ISA-specific flags,
 * so the compiler lowers the 8-lane vectors to whatever the build
 * baseline provides (paired SSE on stock x86-64, NEON on AArch64).
 *
 * Only the FP32 kernels whose lanes are independent output elements
 * are vectorized here (LUT gather-accumulate and axpy, where
 * per-element accumulation order is preserved by construction). The
 * CCS argmin reduction and the INT8 LUT accumulate delegate to the
 * scalar reference: vectorized through the build baseline they
 * measured no faster than scalar. This TU is built with
 * -ffp-contract=off so the a*x+y in axpy can never fuse into an FMA
 * on targets whose baseline has one — fusion would change rounding
 * and break the bit-exactness contract.
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

void
genericAxpyF32(float a, const float *x, float *y, std::size_t n)
{
    const std::size_t vec_end = n - n % 8;
    const V8f va = {a, a, a, a, a, a, a, a};
    for (std::size_t j = 0; j < vec_end; j += 8)
        storeF32(y + j, loadF32(y + j) + va * loadF32(x + j));
    for (std::size_t j = vec_end; j < n; ++j)
        y[j] += a * x[j];
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
        genericAxpyF32,
    };
    return table;
}

} // namespace detail
} // namespace kernels
} // namespace pimdl
