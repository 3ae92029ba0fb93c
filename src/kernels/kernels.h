/**
 * @file
 * Vectorized micro-kernels behind the hot functional paths (closest-
 * centroid search, LUT gather-accumulate, GEMM tile) with a runtime
 * CPU-feature dispatch table.
 *
 * Every implementation is bit-exact against the scalar reference: the
 * per-output-element floating-point accumulation order is part of the
 * kernel contract (codebook order for the LUT reduce, sub-vector
 * element order for the CCS dot product, ascending inner-dimension
 * order for the GEMM tile), so SIMD variants vectorize only across
 * independent output elements — or restructure reductions so each
 * lane reproduces the scalar sequence exactly. That is what lets the
 * degraded-mode / host-fallback ladder in the LUT executor and the
 * pinned plan goldens stay bit-identical no matter which ISA executed
 * a tile.
 *
 * Dispatch resolution order (mirroring the PIMDL_VERIFY_PLANS
 * pattern): a process-wide runtime override (`setKernelImpl`), else
 * the `PIMDL_KERNEL_IMPL` environment variable ("scalar", "generic",
 * "avx2"), else the fastest implementation compiled in AND supported
 * by the running CPU. Selection publishes the `kernels.impl` gauge;
 * call-site helpers publish per-kernel bytes/elements counters.
 */

#ifndef PIMDL_KERNELS_KERNELS_H
#define PIMDL_KERNELS_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pimdl {
namespace kernels {

/**
 * Closest-centroid search over one codebook: returns
 * argmin_ct (norms2[ct] - 2 * dot(v, centroids[ct])) scanning
 * centroids in ascending order with strict less-than (first minimum
 * wins). `centroids` is row-major ct_count x v_len; `norms2` holds the
 * cached squared centroid norms.
 */
using CcsArgminFn = std::size_t (*)(const float *v, const float *centroids,
                                    const float *norms2,
                                    std::size_t ct_count,
                                    std::size_t v_len);

/**
 * FP32 LUT gather-accumulate over a block of @p nrows output rows.
 * Row r reads its cb_count indices at idx + r * idx_stride and writes
 * dst[r * dst_stride + j] for j in [0, f_count): zero, then for each
 * codebook cb in ascending order,
 * += lut[(cb * ct_count + idx_r[cb]) * f_dim + col0 + j]. `f_dim` is
 * the full LUT row width; [col0, col0 + f_count) selects the tile
 * columns this call reduces.
 */
using LutAccumF32Fn = void (*)(const std::uint16_t *idx,
                               std::size_t idx_stride, std::size_t nrows,
                               std::size_t cb_count, std::size_t ct_count,
                               const float *lut, std::size_t f_dim,
                               std::size_t col0, std::size_t f_count,
                               float *dst, std::size_t dst_stride);

/**
 * INT8 LUT gather-accumulate over a row block: the same traversal as
 * LutAccumF32Fn, but each column sums sign-extended INT8 entries into
 * an INT32 accumulator (exact), and the kernel writes the dequantized
 * float(acc) * scale itself. Vector loads stay inside the LUT rows
 * being gathered, so the table needs no padding past its last row.
 */
using LutAccumI8Fn = void (*)(const std::uint16_t *idx,
                              std::size_t idx_stride, std::size_t nrows,
                              std::size_t cb_count, std::size_t ct_count,
                              const std::int8_t *lut, std::size_t f_dim,
                              std::size_t col0, std::size_t f_count,
                              float scale, float *dst,
                              std::size_t dst_stride);

/**
 * FP32 GEMM over an m x n output block: C = A * B with A m x k (row
 * stride @p lda), B k x n (row stride @p ldb) and C m x n (row stride
 * @p ldc). Each c[i][j] starts at +0.0f and takes
 * c = c + a[i][p] * b[p][j] for p = 0 .. k-1 in ascending order, the
 * multiply and the add rounded separately (no FMA). C is only
 * written, never read.
 */
using GemmF32Fn = void (*)(const float *a, std::size_t lda,
                           const float *b, std::size_t ldb, float *c,
                           std::size_t ldc, std::size_t m, std::size_t n,
                           std::size_t k);

/** One ISA implementation of the micro-kernel set. */
struct KernelTable
{
    /** Stable implementation name ("scalar", "generic", "avx2"). */
    const char *name;
    /** Priority for auto-selection (higher wins when supported). */
    int priority;
    CcsArgminFn ccs_argmin;
    LutAccumF32Fn lut_accum_f32;
    LutAccumI8Fn lut_accum_i8;
    GemmF32Fn gemm_f32;
};

/** The bit-exactness oracle; always available. */
const KernelTable &scalarKernels();

/**
 * Portable compiler-vector implementation (GCC/Clang vector
 * extensions): lowers to SSE on baseline x86-64 and NEON on AArch64
 * without ISA-specific flags. Always available.
 */
const KernelTable &genericKernels();

/**
 * AVX2 implementation, or nullptr when the TU was not compiled in
 * (non-x86 target or compiler without -mavx2) or the running CPU
 * lacks AVX2 support.
 */
const KernelTable *avx2Kernels();

/**
 * Every implementation compiled in AND supported by this CPU, ordered
 * by ascending priority (scalar first).
 */
std::vector<const KernelTable *> availableKernels();

/**
 * Looks an implementation up by name; nullptr for unknown names and
 * for implementations unavailable on this machine.
 */
const KernelTable *kernelsByName(const std::string &name);

/**
 * The dispatch table hot paths call through. Resolution: runtime
 * override from setKernelImpl, else PIMDL_KERNEL_IMPL (unknown or
 * unavailable names fall back to auto with a warning), else the
 * highest-priority available implementation. Publishes the
 * `kernels.impl` gauge on every selection change. Thread-safe.
 */
const KernelTable &best();

/**
 * Process-wide runtime override of the dispatched implementation
 * (test hook and bench `--kernel-impl` flag). Throws on names that
 * are unknown or unavailable on this machine; pass an empty string to
 * restore auto/env resolution. Thread-safe.
 */
void setKernelImpl(const std::string &name);

/**
 * Coarse-grained work accounting, called once per operator invocation
 * (never per row): kernels.ccs.* / kernels.lut.* / kernels.gemm.*
 * bytes and element counters.
 */
void recordCcsWork(std::size_t rows, std::size_t cb_count,
                   std::size_t ct_count, std::size_t v_len);
void recordLutWork(std::size_t rows, std::size_t cb_count,
                   std::size_t f_count, std::size_t elem_bytes);
void recordGemmWork(std::size_t m, std::size_t n, std::size_t k);

} // namespace kernels
} // namespace pimdl

#endif // PIMDL_KERNELS_KERNELS_H
