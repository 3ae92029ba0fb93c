/**
 * @file
 * AVX2 implementation of the micro-kernel set. This TU is the only
 * one compiled with -mavx2 (plus -ffp-contract=off so no mul+add pair
 * is silently fused into an FMA); the dispatch layer guards it behind
 * a runtime __builtin_cpu_supports("avx2") check.
 *
 * Bit-exactness with the scalar reference is preserved by keeping the
 * per-output floating-point operation order identical:
 *  - FP32 LUT gather-accumulate and the GEMM tile vectorize across
 *    independent output columns, so each column sees the exact scalar
 *    sequence.
 *  - INT8 LUT gather-accumulate sums integers, exact in any grouping,
 *    so it may split codebooks and rows into blocks freely; only the
 *    final float(acc) * scale is floating point.
 *  - The CCS dot product is a reduction over the sub-vector, so the
 *    V=4 fast path transposes blocks of eight centroids into four
 *    element-planes and evaluates ((v0*c0 + v1*c1) + v2*c2) + v3*c3
 *    lane-wise — the scalar association — with one centroid per lane.
 *    The argmin keeps strict less-than, first-minimum-wins semantics
 *    across the lane permutation (see ccsArgminV4 for the argument).
 *  - Sub-vector lengths without a fast path fall back to the scalar
 *    reference, which is trivially bit-exact.
 *
 * Every entry returns with the upper YMM halves clean (CleanAvxState).
 * GCC emits vzeroupper on most exits of a -mavx2 function but not on
 * all of them, and a thread left dirty runs later SSE code with a
 * false dependency on the upper state: the forward's gelu (glibc's SSE
 * tanhf) took about 2x as long on the persistent parallelFor workers.
 */

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "kernels/kernels_impl.h"

namespace pimdl {
namespace kernels {
namespace detail {

namespace {

/**
 * Scope guard for every table entry: vzeroupper on each exit, so the
 * caller's SSE code never runs against dirty upper YMM state.
 */
struct CleanAvxState
{
    CleanAvxState() = default;
    CleanAvxState(const CleanAvxState &) = delete;
    CleanAvxState &operator=(const CleanAvxState &) = delete;
    ~CleanAvxState() { _mm256_zeroupper(); }
};

/**
 * CCS argmin over one codebook with V == 4.
 *
 * Eight centroids (32 contiguous floats) are loaded as four 8-lane
 * rows and transposed so plane k holds element k of each centroid.
 * The in-register transpose leaves lanes in the fixed permutation
 * {0,2,4,6,1,3,5,7} relative to the centroid block; the lane-index
 * vector and the norms are permuted identically, so every lane tracks
 * the scalar-order running minimum of its own index subsequence.
 * Because the subsequences partition the centroid range, taking the
 * smallest stored index among the lanes that attain the global
 * minimum recovers exactly the first global minimum — the scalar
 * tie-break.
 */
std::size_t
ccsArgminV4(const float *v, const float *centroids, const float *norms2,
            std::size_t ct_count)
{
    const std::size_t blocks = ct_count / 8;
    std::size_t best_ct = 0;
    float best_score = 0.0f;
    bool seeded = false;

    if (blocks > 0) {
        const __m256 v0 = _mm256_set1_ps(v[0]);
        const __m256 v1 = _mm256_set1_ps(v[1]);
        const __m256 v2 = _mm256_set1_ps(v[2]);
        const __m256 v3 = _mm256_set1_ps(v[3]);
        // Transpose lane order: lane l of every plane holds centroid
        // base + kLanePerm[l].
        const __m256i lane_perm =
            _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        const __m256 lane_perm_f =
            _mm256_setr_ps(0.0f, 2.0f, 4.0f, 6.0f, 1.0f, 3.0f, 5.0f,
                           7.0f);

        __m256 best_v = _mm256_set1_ps(0.0f);
        __m256 best_idx_v = _mm256_set1_ps(0.0f);

        for (std::size_t b = 0; b < blocks; ++b) {
            const float *base = centroids + b * 32;
            const __m256 r0 = _mm256_loadu_ps(base);
            const __m256 r1 = _mm256_loadu_ps(base + 8);
            const __m256 r2 = _mm256_loadu_ps(base + 16);
            const __m256 r3 = _mm256_loadu_ps(base + 24);

            // 8x4 transpose into element planes d0..d3.
            const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
            const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
            const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
            const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
            const __m256 d0 =
                _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
            const __m256 d1 =
                _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
            const __m256 d2 =
                _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
            const __m256 d3 =
                _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));

            // Scalar association: ((v0*c0 + v1*c1) + v2*c2) + v3*c3.
            const __m256 dot = _mm256_add_ps(
                _mm256_add_ps(
                    _mm256_add_ps(_mm256_mul_ps(v0, d0),
                                  _mm256_mul_ps(v1, d1)),
                    _mm256_mul_ps(v2, d2)),
                _mm256_mul_ps(v3, d3));

            const __m256 norms = _mm256_permutevar8x32_ps(
                _mm256_loadu_ps(norms2 + b * 8), lane_perm);
            const __m256 score = _mm256_sub_ps(
                norms, _mm256_mul_ps(_mm256_set1_ps(2.0f), dot));
            const __m256 idx = _mm256_add_ps(
                _mm256_set1_ps(static_cast<float>(b * 8)), lane_perm_f);

            if (b == 0) {
                best_v = score;
                best_idx_v = idx;
            } else {
                const __m256 lt =
                    _mm256_cmp_ps(score, best_v, _CMP_LT_OQ);
                best_v = _mm256_blendv_ps(best_v, score, lt);
                best_idx_v = _mm256_blendv_ps(best_idx_v, idx, lt);
            }
        }

        // Cross-lane reduce, all in-register: fold to the global
        // minimum score, then take the smallest index among the lanes
        // that attain it (== also matches across 0.0/-0.0, exactly
        // like the scalar strict-less scan which never replaces on
        // equal scores).
        __m256 m = _mm256_min_ps(
            best_v, _mm256_permute2f128_ps(best_v, best_v, 1));
        m = _mm256_min_ps(
            m, _mm256_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
        m = _mm256_min_ps(
            m, _mm256_shuffle_ps(m, m, _MM_SHUFFLE(2, 3, 0, 1)));
        const __m256 eq = _mm256_cmp_ps(best_v, m, _CMP_EQ_OQ);
        __m256 im = _mm256_blendv_ps(
            _mm256_set1_ps(std::numeric_limits<float>::max()),
            best_idx_v, eq);
        im = _mm256_min_ps(im, _mm256_permute2f128_ps(im, im, 1));
        im = _mm256_min_ps(
            im, _mm256_shuffle_ps(im, im, _MM_SHUFFLE(1, 0, 3, 2)));
        im = _mm256_min_ps(
            im, _mm256_shuffle_ps(im, im, _MM_SHUFFLE(2, 3, 0, 1)));
        best_score = _mm256_cvtss_f32(m);
        best_ct = static_cast<std::size_t>(_mm256_cvtss_f32(im));
        seeded = true;
    }

    // Scalar tail over the trailing < 8 centroids, continuing the
    // strict-less scan (tail indices all exceed the vector indices).
    for (std::size_t ct = blocks * 8; ct < ct_count; ++ct) {
        const float *c = centroids + ct * 4;
        float dot = 0.0f;
        for (std::size_t d = 0; d < 4; ++d)
            dot += v[d] * c[d];
        const float score = norms2[ct] - 2.0f * dot;
        if (!seeded || score < best_score) {
            best_score = score;
            best_ct = ct;
            seeded = true;
        }
    }
    return best_ct;
}

std::size_t
avx2CcsArgmin(const float *v, const float *centroids, const float *norms2,
              std::size_t ct_count, std::size_t v_len)
{
    const CleanAvxState clean;
    if (v_len == 4)
        return ccsArgminV4(v, centroids, norms2, ct_count);
    return scalarCcsArgmin(v, centroids, norms2, ct_count, v_len);
}

void
avx2LutAccumF32(const std::uint16_t *idx, std::size_t idx_stride,
                std::size_t nrows, std::size_t cb_count,
                std::size_t ct_count, const float *lut, std::size_t f_dim,
                std::size_t col0, std::size_t f_count, float *dst,
                std::size_t dst_stride)
{
    const CleanAvxState clean;
    const std::size_t vec_end = f_count - f_count % 8;
    for (std::size_t r = 0; r < nrows; ++r) {
        const std::uint16_t *idx_row = idx + r * idx_stride;
        float *out = dst + r * dst_stride;
        for (std::size_t j = 0; j < f_count; ++j)
            out[j] = 0.0f;
        for (std::size_t cb = 0; cb < cb_count; ++cb) {
            const float *src =
                lut + (cb * ct_count + idx_row[cb]) * f_dim + col0;
            for (std::size_t j = 0; j < vec_end; j += 8) {
                const __m256 acc = _mm256_loadu_ps(out + j);
                _mm256_storeu_ps(
                    out + j,
                    _mm256_add_ps(acc, _mm256_loadu_ps(src + j)));
            }
            for (std::size_t j = vec_end; j < f_count; ++j)
                out[j] += src[j];
        }
    }
}

/** 16 INT8 entries at @p p sign-extended and added to (lo, hi). */
inline void
accumulate16(const std::int8_t *p, __m256i &lo, __m256i &hi)
{
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    lo = _mm256_add_epi32(lo, _mm256_cvtepi8_epi32(bytes));
    hi = _mm256_add_epi32(
        hi, _mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8)));
}

/** 8 INT8 entries at @p p sign-extended and added to @p acc. */
inline void
accumulate8(const std::int8_t *p, __m256i &acc)
{
    acc = _mm256_add_epi32(
        acc, _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                 reinterpret_cast<const __m128i *>(p))));
}

/** 16 INT8 entries at @p p sign-extended and added as INT16 lanes. */
inline void
accumulate16x16(const std::int8_t *p, __m256i &acc16)
{
    acc16 = _mm256_add_epi16(
        acc16, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                   reinterpret_cast<const __m128i *>(p))));
}

/** Dequantizes 8 INT32 sums: float(acc) * scale, lane-wise. */
inline __m256
dequant8(__m256i acc, __m256 scale)
{
    return _mm256_mul_ps(_mm256_cvtepi32_ps(acc), scale);
}

/**
 * Most codebooks one call of accumulateRows may sum into INT16 lanes:
 * 256 * 128 still fits, so no INT16 sum can overflow.
 */
constexpr std::size_t kMaxChunk16 = 256;

/**
 * Adds codebooks [0, cbn) of kRows consecutive rows into their window
 * sums @p acc (kHalves INT32 registers per row). The rows share the
 * loop and the codebook base pointer, and their independent sums keep
 * the gathers overlapping. An 8-byte window sums straight into INT32;
 * a 16-byte window sums into 16 INT16 lanes (one widening per load)
 * that are widened into the INT32 sums once per call.
 */
template <int kHalves, int kRows>
inline void
accumulateRows(const std::uint16_t *idx, std::size_t idx_stride,
               std::size_t cbn, const std::int8_t *chunk,
               std::size_t f_dim, std::size_t cb_step,
               __m256i (*acc)[kHalves])
{
    __m256i a[kRows];
#pragma GCC unroll 4
    for (int i = 0; i < kRows; ++i)
        a[i] = kHalves == 1 ? acc[i][0] : _mm256_setzero_si256();
    const std::int8_t *base = chunk;
    for (std::size_t cb = 0; cb < cbn; ++cb) {
#pragma GCC unroll 4
        for (int i = 0; i < kRows; ++i) {
            const std::int8_t *src =
                base + idx[i * idx_stride + cb] * f_dim;
            if constexpr (kHalves == 1)
                accumulate8(src, a[i]);
            else
                accumulate16x16(src, a[i]);
        }
        base += cb_step;
    }
#pragma GCC unroll 4
    for (int i = 0; i < kRows; ++i) {
        if constexpr (kHalves == 1) {
            acc[i][0] = a[i];
        } else {
            acc[i][0] = _mm256_add_epi32(
                acc[i][0],
                _mm256_cvtepi16_epi32(_mm256_castsi256_si128(a[i])));
            acc[i][1] = _mm256_add_epi32(
                acc[i][1],
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(a[i], 1)));
        }
    }
}

/**
 * One column window of a row block: sums the kHalves * 8 bytes at
 * @p win (the window's offset in every LUT row) for each row, then
 * writes columns [off, off + w) of the window to dst. A narrow window
 * uses a few bytes of every cache line it touches, so rows go in
 * blocks of kRowBlock and codebooks in chunks of kCbChunk: one chunk's
 * kCbChunk * ct_count candidate rows stay in L1 while every row of the
 * block reads them, four rows at a time. The INT32 sums are exact, so
 * the split changes no bit of the result.
 */
template <int kHalves>
void
accumulateWindow(const std::uint16_t *idx, std::size_t idx_stride,
                 std::size_t nrows, std::size_t cb_count,
                 std::size_t cb_step, const std::int8_t *win,
                 std::size_t f_dim, std::size_t off, std::size_t w,
                 __m256 vscale, float *dst, std::size_t dst_stride)
{
    constexpr std::size_t kRowBlock = 128;
    constexpr std::size_t kCbChunk = 16;
    static_assert(kCbChunk <= kMaxChunk16, "INT16 window sums overflow");
    __m256i acc[kRowBlock][kHalves];
    for (std::size_t r0 = 0; r0 < nrows; r0 += kRowBlock) {
        const std::size_t rn = std::min(kRowBlock, nrows - r0);
        for (std::size_t r = 0; r < rn; ++r) {
            for (int h = 0; h < kHalves; ++h)
                acc[r][h] = _mm256_setzero_si256();
        }
        for (std::size_t cb0 = 0; cb0 < cb_count; cb0 += kCbChunk) {
            const std::size_t cbn = std::min(kCbChunk, cb_count - cb0);
            const std::int8_t *chunk = win + cb0 * cb_step;
            const std::uint16_t *rows = idx + r0 * idx_stride + cb0;
            std::size_t r = 0;
            for (; r + 4 <= rn; r += 4) {
                accumulateRows<kHalves, 4>(rows + r * idx_stride,
                                           idx_stride, cbn, chunk, f_dim,
                                           cb_step, acc + r);
            }
            for (; r < rn; ++r) {
                accumulateRows<kHalves, 1>(rows + r * idx_stride,
                                           idx_stride, cbn, chunk, f_dim,
                                           cb_step, acc + r);
            }
        }
        for (std::size_t r = 0; r < rn; ++r) {
            float *out = dst + (r0 + r) * dst_stride;
            alignas(32) float block[kHalves * 8];
            for (int h = 0; h < kHalves; ++h) {
                _mm256_store_ps(block + 8 * h,
                                dequant8(acc[r][h], vscale));
            }
            std::memcpy(out, block + off, w * sizeof(float));
        }
    }
}

/**
 * INT8 row-block kernel. Columns go in blocks whose INT32 sums stay in
 * registers across the codebook loop: two 16-column blocks at a time
 * while 32 columns remain (sharing the index loads), then windows of
 * 16 columns, or 8 when at most 8 remain. Every load is a window
 * inside the gathered LUT row: a window that would run past f_dim
 * reads the last bytes of the row instead and takes its columns from
 * an offset. INT32 sums are exact and cvtepi32_ps/mul_ps round like
 * the scalar static_cast<float>(acc) * scale, so the output is
 * bit-identical. Rows narrower than 16 columns take the scalar
 * reference.
 */
void
avx2LutAccumI8(const std::uint16_t *idx, std::size_t idx_stride,
               std::size_t nrows, std::size_t cb_count,
               std::size_t ct_count, const std::int8_t *lut,
               std::size_t f_dim, std::size_t col0, std::size_t f_count,
               float scale, float *dst, std::size_t dst_stride)
{
    const CleanAvxState clean;
    if (nrows == 0)
        return;
    if (f_dim < 16) {
        scalarLutAccumI8(idx, idx_stride, nrows, cb_count, ct_count, lut,
                         f_dim, col0, f_count, scale, dst, dst_stride);
        return;
    }
    const std::size_t cb_step = ct_count * f_dim;
    const __m256 vscale = _mm256_set1_ps(scale);
    const std::size_t wide_end = f_count - f_count % 32;
    for (std::size_t r = 0; r < nrows; ++r) {
        const std::uint16_t *idx_row = idx + r * idx_stride;
        float *out = dst + r * dst_stride;
        for (std::size_t c = 0; c < wide_end; c += 32) {
            const std::int8_t *base = lut + col0 + c;
            __m256i a_lo = _mm256_setzero_si256();
            __m256i a_hi = _mm256_setzero_si256();
            __m256i b_lo = _mm256_setzero_si256();
            __m256i b_hi = _mm256_setzero_si256();
            for (std::size_t cb = 0; cb < cb_count; ++cb) {
                const std::int8_t *src = base + idx_row[cb] * f_dim;
                accumulate16(src, a_lo, a_hi);
                accumulate16(src + 16, b_lo, b_hi);
                base += cb_step;
            }
            _mm256_storeu_ps(out + c, dequant8(a_lo, vscale));
            _mm256_storeu_ps(out + c + 8, dequant8(a_hi, vscale));
            _mm256_storeu_ps(out + c + 16, dequant8(b_lo, vscale));
            _mm256_storeu_ps(out + c + 24, dequant8(b_hi, vscale));
        }
    }
    for (std::size_t c = wide_end; c < f_count; c += 16) {
        const std::size_t w = std::min<std::size_t>(16, f_count - c);
        const std::size_t span = w <= 8 ? 8 : 16;
        const std::size_t win = std::min(col0 + c, f_dim - span);
        const std::size_t off = col0 + c - win;
        if (span == 8) {
            accumulateWindow<1>(idx, idx_stride, nrows, cb_count, cb_step,
                                lut + win, f_dim, off, w, vscale, dst + c,
                                dst_stride);
        } else {
            accumulateWindow<2>(idx, idx_stride, nrows, cb_count, cb_step,
                                lut + win, f_dim, off, w, vscale, dst + c,
                                dst_stride);
        }
    }
}

/**
 * One kRows x (8 * kVecs) block of C over the whole k: the block's
 * sums stay in kRows * kVecs YMM registers, each lane one c[i][j]
 * taking c + a[i][p] * b[p][j] in ascending p, the scalar sequence.
 */
template <int kRows, int kVecs>
inline void
gemmTile(const float *a, std::size_t lda, const float *b, std::size_t ldb,
         float *c, std::size_t ldc, std::size_t k)
{
    __m256 acc[kRows][kVecs];
#pragma GCC unroll 4
    for (int i = 0; i < kRows; ++i) {
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            acc[i][v] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        __m256 bv[kVecs];
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            bv[v] = _mm256_loadu_ps(b + p * ldb + 8 * v);
#pragma GCC unroll 4
        for (int i = 0; i < kRows; ++i) {
            const __m256 av = _mm256_broadcast_ss(a + i * lda + p);
#pragma GCC unroll 2
            for (int v = 0; v < kVecs; ++v)
                acc[i][v] =
                    _mm256_add_ps(acc[i][v], _mm256_mul_ps(av, bv[v]));
        }
    }
#pragma GCC unroll 4
    for (int i = 0; i < kRows; ++i) {
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            _mm256_storeu_ps(c + i * ldc + 8 * v, acc[i][v]);
    }
}

/** Rows [0, m) of one 8 * kVecs column strip: 4-row tiles, then
 * single rows. */
template <int kVecs>
inline void
gemmStrip(const float *a, std::size_t lda, const float *b, std::size_t ldb,
          float *c, std::size_t ldc, std::size_t m, std::size_t k)
{
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4)
        gemmTile<4, kVecs>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k);
    for (; i < m; ++i)
        gemmTile<1, kVecs>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k);
}

/**
 * GEMM tile kernel. Rows go in blocks of kRowBlock so the block's A
 * rows stay cached while every 16-column strip of B streams past
 * them; a strip is 4 x 16 tiles (8 YMM sums) down the block. An
 * 8-column strip takes 4 x 8 tiles, and the last n % 8 columns the
 * scalar reference.
 */
void
avx2GemmF32(const float *a, std::size_t lda, const float *b,
            std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
            std::size_t n, std::size_t k)
{
    const CleanAvxState clean;
    constexpr std::size_t kRowBlock = 64;
    const std::size_t n16 = n - n % 16;
    const std::size_t n8 = n - n % 8;
    for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
        const std::size_t rows = std::min(kRowBlock, m - i0);
        const float *ab = a + i0 * lda;
        float *cb = c + i0 * ldc;
        for (std::size_t j = 0; j < n16; j += 16)
            gemmStrip<2>(ab, lda, b + j, ldb, cb + j, ldc, rows, k);
        if (n8 > n16)
            gemmStrip<1>(ab, lda, b + n16, ldb, cb + n16, ldc, rows, k);
        if (n > n8) {
            scalarGemmF32(ab, lda, b + n8, ldb, cb + n8, ldc, rows,
                          n - n8, k);
        }
    }
}

} // namespace

const KernelTable &
avx2Table()
{
    static const KernelTable table = {
        "avx2",
        2,
        avx2CcsArgmin,
        avx2LutAccumF32,
        avx2LutAccumI8,
        avx2GemmF32,
    };
    return table;
}

} // namespace detail
} // namespace kernels
} // namespace pimdl
