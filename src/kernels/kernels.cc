#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "kernels/kernels_impl.h"
#include "obs/metrics.h"

namespace pimdl {
namespace kernels {

namespace detail {

std::size_t
scalarCcsArgmin(const float *v, const float *centroids,
                const float *norms2, std::size_t ct_count,
                std::size_t v_len)
{
    // Must stay operation-for-operation identical to the historical
    // CodebookSet::nearest loop: sequential dot over v_len, then
    // norm - 2*dot, strict less-than scan keeping the first minimum.
    std::size_t best_ct = 0;
    float best_score = 0.0f;
    for (std::size_t ct = 0; ct < ct_count; ++ct) {
        const float *c = centroids + ct * v_len;
        float dot = 0.0f;
        for (std::size_t d = 0; d < v_len; ++d)
            dot += v[d] * c[d];
        const float score = norms2[ct] - 2.0f * dot;
        if (ct == 0 || score < best_score) {
            best_score = score;
            best_ct = ct;
        }
    }
    return best_ct;
}

void
scalarLutAccumF32(const std::uint16_t *idx, std::size_t idx_stride,
                  std::size_t nrows, std::size_t cb_count,
                  std::size_t ct_count, const float *lut,
                  std::size_t f_dim, std::size_t col0, std::size_t f_count,
                  float *dst, std::size_t dst_stride)
{
    for (std::size_t r = 0; r < nrows; ++r) {
        const std::uint16_t *idx_row = idx + r * idx_stride;
        float *out = dst + r * dst_stride;
        for (std::size_t j = 0; j < f_count; ++j)
            out[j] = 0.0f;
        for (std::size_t cb = 0; cb < cb_count; ++cb) {
            const float *src =
                lut + (cb * ct_count + idx_row[cb]) * f_dim + col0;
            for (std::size_t j = 0; j < f_count; ++j)
                out[j] += src[j];
        }
    }
}

void
scalarLutAccumI8(const std::uint16_t *idx, std::size_t idx_stride,
                 std::size_t nrows, std::size_t cb_count,
                 std::size_t ct_count, const std::int8_t *lut,
                 std::size_t f_dim, std::size_t col0, std::size_t f_count,
                 float scale, float *dst, std::size_t dst_stride)
{
    // Columns are independent, so a fixed-size chunk of accumulators
    // reproduces the whole-row sums exactly.
    constexpr std::size_t kChunk = 256;
    std::int32_t acc[kChunk];
    for (std::size_t r = 0; r < nrows; ++r) {
        const std::uint16_t *idx_row = idx + r * idx_stride;
        float *out = dst + r * dst_stride;
        for (std::size_t c0 = 0; c0 < f_count; c0 += kChunk) {
            const std::size_t w = std::min(kChunk, f_count - c0);
            const std::int8_t *cols = lut + col0 + c0;
            for (std::size_t j = 0; j < w; ++j)
                acc[j] = 0;
            for (std::size_t cb = 0; cb < cb_count; ++cb) {
                const std::int8_t *src =
                    cols + (cb * ct_count + idx_row[cb]) * f_dim;
                for (std::size_t j = 0; j < w; ++j)
                    acc[j] += src[j];
            }
            for (std::size_t j = 0; j < w; ++j)
                out[c0 + j] = static_cast<float>(acc[j]) * scale;
        }
    }
}

void
scalarGemmF32(const float *a, std::size_t lda, const float *b,
              std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
              std::size_t n, std::size_t k)
{
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c + i * ldc;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a[i * lda + p];
            const float *brow = b + p * ldb;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

} // namespace detail

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        "scalar",
        0,
        detail::scalarCcsArgmin,
        detail::scalarLutAccumF32,
        detail::scalarLutAccumI8,
        detail::scalarGemmF32,
    };
    return table;
}

const KernelTable &
genericKernels()
{
    return detail::genericTable();
}

const KernelTable *
avx2Kernels()
{
#if defined(PIMDL_KERNELS_HAVE_AVX2)
    // Compiled in; usable only when the running CPU has AVX2.
    static const bool supported = __builtin_cpu_supports("avx2") != 0;
    return supported ? &detail::avx2Table() : nullptr;
#else
    return nullptr;
#endif
}

std::vector<const KernelTable *>
availableKernels()
{
    std::vector<const KernelTable *> impls = {&scalarKernels(),
                                              &genericKernels()};
    if (const KernelTable *avx2 = avx2Kernels())
        impls.push_back(avx2);
    return impls;
}

const KernelTable *
kernelsByName(const std::string &name)
{
    for (const KernelTable *impl : availableKernels()) {
        if (name == impl->name)
            return impl;
    }
    return nullptr;
}

namespace {

/** Numeric impl id published through the kernels.impl gauge. */
void
publishImplGauge(const KernelTable &table)
{
    static obs::Gauge &gauge =
        obs::MetricsRegistry::instance().gauge("kernels.impl");
    gauge.set(static_cast<double>(table.priority));
}

/** Highest-priority implementation available on this machine. */
const KernelTable &
fastestAvailable()
{
    const KernelTable *best_impl = &scalarKernels();
    for (const KernelTable *impl : availableKernels()) {
        if (impl->priority > best_impl->priority)
            best_impl = impl;
    }
    return *best_impl;
}

/**
 * Resolves the PIMDL_KERNEL_IMPL environment default once per process
 * (the same read-once contract PIMDL_VERIFY_PLANS uses); unknown or
 * unavailable names warn and fall back to auto-selection.
 */
const KernelTable &
environmentDefault()
{
    static const KernelTable &resolved = []() -> const KernelTable & {
        const char *env = std::getenv("PIMDL_KERNEL_IMPL");
        if (env != nullptr && env[0] != '\0' &&
            std::string(env) != "auto") {
            if (const KernelTable *named = kernelsByName(env))
                return *named;
            PIMDL_LOG_WARN << "PIMDL_KERNEL_IMPL=" << env
                           << " unknown or unavailable on this CPU; "
                              "falling back to auto dispatch";
        }
        return fastestAvailable();
    }();
    return resolved;
}

/** setKernelImpl override; nullptr means auto/env resolution. */
std::atomic<const KernelTable *> g_override{nullptr};

} // namespace

const KernelTable &
best()
{
    if (const KernelTable *forced =
            g_override.load(std::memory_order_acquire))
        return *forced;
    const KernelTable &table = environmentDefault();
    publishImplGauge(table);
    return table;
}

void
setKernelImpl(const std::string &name)
{
    if (name.empty() || name == "auto") {
        g_override.store(nullptr, std::memory_order_release);
        publishImplGauge(environmentDefault());
        return;
    }
    const KernelTable *named = kernelsByName(name);
    PIMDL_REQUIRE(named != nullptr,
                  "unknown or unavailable kernel impl: " + name);
    g_override.store(named, std::memory_order_release);
    publishImplGauge(*named);
}

void
recordCcsWork(std::size_t rows, std::size_t cb_count, std::size_t ct_count,
              std::size_t v_len)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_rows = reg.counter("kernels.ccs.rows");
    static obs::Counter &c_subvecs = reg.counter("kernels.ccs.subvectors");
    static obs::Counter &c_bytes = reg.counter("kernels.ccs.bytes");
    c_rows.add(rows);
    c_subvecs.add(rows * cb_count);
    // Streamed bytes: the input row plus every candidate centroid and
    // its cached norm, per codebook.
    c_bytes.add(rows * cb_count *
                (v_len + ct_count * (v_len + 1)) * sizeof(float));
}

void
recordLutWork(std::size_t rows, std::size_t cb_count, std::size_t f_count,
              std::size_t elem_bytes)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_rows = reg.counter("kernels.lut.rows");
    static obs::Counter &c_elems = reg.counter("kernels.lut.elements");
    static obs::Counter &c_bytes = reg.counter("kernels.lut.bytes");
    c_rows.add(rows);
    c_elems.add(rows * cb_count * f_count);
    c_bytes.add(rows * cb_count * f_count * elem_bytes);
}

void
recordGemmWork(std::size_t m, std::size_t n, std::size_t k)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_elems = reg.counter("kernels.gemm.elements");
    static obs::Counter &c_bytes = reg.counter("kernels.gemm.bytes");
    // Multiply-adds, and the A, B and C bytes each touched once.
    c_elems.add(m * n * k);
    c_bytes.add((m * k + k * n + m * n) * sizeof(float));
}

} // namespace kernels
} // namespace pimdl
