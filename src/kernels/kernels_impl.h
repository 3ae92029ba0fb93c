/**
 * @file
 * Internal declarations shared between the kernel translation units.
 *
 * The scalar reference functions are reused by the SIMD TUs for lane
 * tails and for shapes they do not specialize (keeping the per-element
 * accumulation order — and therefore bit-exactness — trivially
 * intact). SIMD TUs register their tables here so the dispatch TU can
 * enumerate them without ISA-specific includes.
 */

#ifndef PIMDL_KERNELS_KERNELS_IMPL_H
#define PIMDL_KERNELS_KERNELS_IMPL_H

#include "kernels/kernels.h"

namespace pimdl {
namespace kernels {
namespace detail {

std::size_t scalarCcsArgmin(const float *v, const float *centroids,
                            const float *norms2, std::size_t ct_count,
                            std::size_t v_len);

void scalarLutAccumF32(const std::uint16_t *idx, std::size_t idx_stride,
                       std::size_t nrows, std::size_t cb_count,
                       std::size_t ct_count, const float *lut,
                       std::size_t f_dim, std::size_t col0,
                       std::size_t f_count, float *dst,
                       std::size_t dst_stride);

void scalarLutAccumI8(const std::uint16_t *idx, std::size_t idx_stride,
                      std::size_t nrows, std::size_t cb_count,
                      std::size_t ct_count, const std::int8_t *lut,
                      std::size_t f_dim, std::size_t col0,
                      std::size_t f_count, float scale, float *dst,
                      std::size_t dst_stride);

void scalarGemmF32(const float *a, std::size_t lda, const float *b,
                   std::size_t ldb, float *c, std::size_t ldc,
                   std::size_t m, std::size_t n, std::size_t k);

/** Defined in kernels_generic.cc. */
const KernelTable &genericTable();

#if defined(PIMDL_KERNELS_HAVE_AVX2)
/** Defined in kernels_avx2.cc (x86 with -mavx2 only). */
const KernelTable &avx2Table();
#endif

} // namespace detail
} // namespace kernels
} // namespace pimdl

#endif // PIMDL_KERNELS_KERNELS_IMPL_H
