/**
 * @file
 * Kernel-dispatch layer tests: bit-parity of every compiled-in SIMD
 * implementation against the scalar reference across odd shapes (lane
 * tails, one-row, one-centroid), dispatch selection via the runtime
 * override and the PIMDL_KERNEL_IMPL environment default, a pinned
 * golden for one BERT-base CCS+LUT block, and the clean-AVX-state
 * contract of every entry.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/fault.h"
#include "kernels/kernels.h"
#include "lutnn/converter.h"

using namespace pimdl;

namespace {

/** Clears any leftover runtime override after each test. */
class KernelDispatchGuard : public ::testing::Test
{
  protected:
    void TearDown() override { kernels::setKernelImpl(""); }
};

using KernelDispatch = KernelDispatchGuard;
using KernelParity = KernelDispatchGuard;
using KernelGolden = KernelDispatchGuard;
using KernelState = KernelDispatchGuard;

std::vector<float>
randomFloats(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.gaussian();
    return v;
}

std::vector<std::int8_t>
randomInt8(Rng &rng, std::size_t n)
{
    std::vector<std::int8_t> v(n);
    for (std::int8_t &x : v)
        x = static_cast<std::int8_t>(rng.integer(-128, 127));
    return v;
}

std::vector<std::uint16_t>
randomIndices(Rng &rng, std::size_t n, std::size_t ct_count)
{
    std::vector<std::uint16_t> v(n);
    for (std::uint16_t &x : v)
        x = static_cast<std::uint16_t>(
            rng.index(ct_count == 0 ? 1 : ct_count));
    return v;
}

std::vector<float>
centroidNorms(const std::vector<float> &centroids, std::size_t ct_count,
              std::size_t v_len)
{
    std::vector<float> norms(ct_count, 0.0f);
    for (std::size_t ct = 0; ct < ct_count; ++ct) {
        for (std::size_t d = 0; d < v_len; ++d) {
            const float c = centroids[ct * v_len + d];
            norms[ct] += c * c;
        }
    }
    return norms;
}

/** Bitwise equality of two float buffers (empty ones included). */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

/** A column window [col0, col0 + f_count) of a LUT row. */
struct Window
{
    std::size_t col0;
    std::size_t f_count;
};

/**
 * The windows a row-block kernel sees for LUT rows of width f_dim:
 * the whole row, an offset odd tail, and the executor's tile widths
 * 6, 9 and 12 at the first, a middle and the last lane (the last one
 * ends exactly at f_dim).
 */
std::vector<Window>
tileWindows(std::size_t f_dim)
{
    std::vector<Window> wins = {{0, f_dim}};
    if (f_dim > 2)
        wins.push_back({f_dim / 3, f_dim - f_dim / 3});
    for (std::size_t fs : {6u, 9u, 12u}) {
        if (fs > f_dim)
            continue;
        const std::size_t lanes = f_dim / fs;
        wins.push_back({0, fs});
        wins.push_back({(lanes / 2) * fs, fs});
        wins.push_back({f_dim - fs, fs});
    }
    return wins;
}

/** XINUSE bit 2: the upper YMM halves hold non-initial state. */
constexpr std::uint64_t kAvxUpperInUse = std::uint64_t{1} << 2;

/** True when XGETBV with ECX=1 (the XINUSE read) is supported:
 * CPUID.(EAX=0DH,ECX=1):EAX[2], with the OS having enabled XSAVE. */
bool
xinuseReadable()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1u << 27)) == 0)
        return false;
    if (__get_cpuid_count(0xD, 1, &a, &b, &c, &d) == 0)
        return false;
    return (a & (1u << 2)) != 0;
#else
    return false;
#endif
}

/** XGETBV(ECX=1); only valid when xinuseReadable(). */
std::uint64_t
readXinuse()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1u));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
#else
    return 0;
#endif
}

} // namespace

TEST_F(KernelDispatch, ScalarAndGenericAlwaysAvailable)
{
    const auto impls = kernels::availableKernels();
    ASSERT_GE(impls.size(), 2u);
    EXPECT_STREQ(impls[0]->name, "scalar");
    EXPECT_EQ(impls[0], &kernels::scalarKernels());
    bool has_generic = false;
    for (const kernels::KernelTable *impl : impls) {
        if (std::string(impl->name) == "generic")
            has_generic = true;
    }
    EXPECT_TRUE(has_generic);
    // Ascending priority, unique names.
    for (std::size_t i = 1; i < impls.size(); ++i)
        EXPECT_GT(impls[i]->priority, impls[i - 1]->priority);
}

TEST_F(KernelDispatch, LookupByName)
{
    EXPECT_EQ(kernels::kernelsByName("scalar"),
              &kernels::scalarKernels());
    EXPECT_EQ(kernels::kernelsByName("generic"),
              &kernels::genericKernels());
    EXPECT_EQ(kernels::kernelsByName("no-such-isa"), nullptr);
    // avx2 resolves exactly when compiled in and CPU-supported.
    EXPECT_EQ(kernels::kernelsByName("avx2"), kernels::avx2Kernels());
}

TEST_F(KernelDispatch, RuntimeOverrideSelectsEveryImpl)
{
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        kernels::setKernelImpl(impl->name);
        EXPECT_EQ(&kernels::best(), impl);
    }
    kernels::setKernelImpl("");
    EXPECT_THROW(kernels::setKernelImpl("no-such-isa"),
                 std::runtime_error);
}

TEST_F(KernelDispatch, EnvDefaultHonored)
{
    kernels::setKernelImpl("");
    const char *env = std::getenv("PIMDL_KERNEL_IMPL");
    if (env != nullptr && kernels::kernelsByName(env) != nullptr) {
        // CI sanitize/tsan jobs pin the impl through the environment.
        EXPECT_STREQ(kernels::best().name, env);
    } else {
        // Auto dispatch picks the highest-priority available impl.
        EXPECT_EQ(&kernels::best(), kernels::availableKernels().back());
    }
}

TEST_F(KernelParity, CcsArgminOddShapes)
{
    Rng rng(42);
    const std::size_t ct_counts[] = {1, 3, 7, 8, 16, 17, 33};
    const std::size_t v_lens[] = {1, 2, 3, 4, 5, 8};
    for (std::size_t ct_count : ct_counts) {
        for (std::size_t v_len : v_lens) {
            auto centroids = randomFloats(rng, ct_count * v_len);
            // Duplicate a centroid to exercise first-minimum-wins
            // tie-breaks (exactly equal scores).
            if (ct_count >= 3) {
                std::memcpy(centroids.data() + (ct_count - 1) * v_len,
                            centroids.data() + v_len,
                            v_len * sizeof(float));
            }
            const auto norms = centroidNorms(centroids, ct_count, v_len);
            for (int trial = 0; trial < 8; ++trial) {
                const auto v = randomFloats(rng, v_len);
                const std::size_t want = kernels::scalarKernels().ccs_argmin(
                    v.data(), centroids.data(), norms.data(), ct_count,
                    v_len);
                for (const kernels::KernelTable *impl :
                     kernels::availableKernels()) {
                    EXPECT_EQ(impl->ccs_argmin(v.data(), centroids.data(),
                                               norms.data(), ct_count,
                                               v_len),
                              want)
                        << impl->name << " ct=" << ct_count
                        << " v=" << v_len;
                }
            }
        }
    }
}

TEST_F(KernelParity, CcsArgminDuplicateOfFirstCentroid)
{
    // A later exact duplicate of centroid 0 must never win.
    const std::size_t v_len = 4;
    Rng rng(7);
    for (std::size_t ct_count : {2u, 9u, 16u, 24u}) {
        auto centroids = randomFloats(rng, ct_count * v_len);
        std::memcpy(centroids.data() + (ct_count - 1) * v_len,
                    centroids.data(), v_len * sizeof(float));
        const auto norms = centroidNorms(centroids, ct_count, v_len);
        // Query exactly on the duplicated centroid: score ties.
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            EXPECT_EQ(impl->ccs_argmin(centroids.data(), centroids.data(),
                                       norms.data(), ct_count, v_len),
                      0u)
                << impl->name << " ct=" << ct_count;
        }
    }
}

TEST_F(KernelParity, LutAccumF32OddShapes)
{
    Rng rng(43);
    const std::size_t ct_count = 16;
    const std::size_t f_dims[] = {1, 5, 8, 9, 15, 31, 64, 257};
    for (std::size_t f_dim : f_dims) {
        for (std::size_t cb_count : {1u, 3u, 12u}) {
            const auto lut =
                randomFloats(rng, cb_count * ct_count * f_dim);
            for (std::size_t nrows : {0u, 1u, 3u, 7u}) {
                const std::size_t idx_stride = cb_count + 2;
                const auto idx =
                    randomIndices(rng, nrows * idx_stride, ct_count);
                for (const Window &win : tileWindows(f_dim)) {
                    const std::size_t dst_stride = win.f_count + 3;
                    auto run = [&](const kernels::KernelTable &kt) {
                        std::vector<float> dst(nrows * dst_stride,
                                               123.0f);
                        kt.lut_accum_f32(idx.data(), idx_stride, nrows,
                                         cb_count, ct_count, lut.data(),
                                         f_dim, win.col0, win.f_count,
                                         dst.data(), dst_stride);
                        return dst;
                    };
                    // The scalar oracle against the contract itself,
                    // padding columns untouched.
                    const std::vector<float> want =
                        run(kernels::scalarKernels());
                    for (std::size_t r = 0; r < nrows; ++r) {
                        for (std::size_t j = 0; j < dst_stride; ++j) {
                            float ref = 123.0f;
                            if (j < win.f_count) {
                                ref = 0.0f;
                                for (std::size_t cb = 0; cb < cb_count;
                                     ++cb) {
                                    ref += lut[(cb * ct_count +
                                                idx[r * idx_stride +
                                                    cb]) *
                                                   f_dim +
                                               win.col0 + j];
                                }
                            }
                            ASSERT_EQ(want[r * dst_stride + j], ref)
                                << "f=" << f_dim << " r=" << r
                                << " j=" << j;
                        }
                    }
                    for (const kernels::KernelTable *impl :
                         kernels::availableKernels()) {
                        const std::vector<float> got = run(*impl);
                        EXPECT_TRUE(sameBits(got, want))
                            << impl->name << " f=" << f_dim
                            << " cb=" << cb_count << " rows=" << nrows
                            << " col0=" << win.col0
                            << " count=" << win.f_count;
                    }
                }
            }
        }
    }
}

TEST_F(KernelParity, LutAccumI8OddShapes)
{
    Rng rng(44);
    const std::size_t ct_count = 16;
    const std::size_t f_dims[] = {1, 7, 8, 9, 15, 16, 17, 33, 40, 255};
    for (std::size_t f_dim : f_dims) {
        // 37 codebooks and 131 rows cross the AVX2 kernel's codebook
        // chunks and row blocks.
        for (std::size_t cb_count : {1u, 5u, 16u, 37u}) {
            const auto lut = randomInt8(rng, cb_count * ct_count * f_dim);
            for (std::size_t nrows : {0u, 1u, 3u, 5u, 131u}) {
                const std::size_t idx_stride = cb_count + 3;
                auto idx =
                    randomIndices(rng, nrows * idx_stride, ct_count);
                // Row 0 gathers the table's last row, so a window that
                // crossed a row end would read past the allocation.
                for (std::size_t cb = 0; nrows > 0 && cb < cb_count; ++cb)
                    idx[cb] = static_cast<std::uint16_t>(ct_count - 1);
                const float scale = 0.37f;
                for (const Window &win : tileWindows(f_dim)) {
                    const std::size_t dst_stride = win.f_count + 2;
                    auto run = [&](const kernels::KernelTable &kt) {
                        std::vector<float> dst(nrows * dst_stride, -7.0f);
                        kt.lut_accum_i8(idx.data(), idx_stride, nrows,
                                        cb_count, ct_count, lut.data(),
                                        f_dim, win.col0, win.f_count,
                                        scale, dst.data(), dst_stride);
                        return dst;
                    };
                    const std::vector<float> want =
                        run(kernels::scalarKernels());
                    for (std::size_t r = 0; r < nrows; ++r) {
                        for (std::size_t j = 0; j < dst_stride; ++j) {
                            float ref = -7.0f;
                            if (j < win.f_count) {
                                std::int32_t acc = 0;
                                for (std::size_t cb = 0; cb < cb_count;
                                     ++cb) {
                                    acc += lut[(cb * ct_count +
                                                idx[r * idx_stride +
                                                    cb]) *
                                                   f_dim +
                                               win.col0 + j];
                                }
                                ref = static_cast<float>(acc) * scale;
                            }
                            ASSERT_EQ(want[r * dst_stride + j], ref)
                                << "f=" << f_dim << " r=" << r
                                << " j=" << j;
                        }
                    }
                    for (const kernels::KernelTable *impl :
                         kernels::availableKernels()) {
                        const std::vector<float> got = run(*impl);
                        EXPECT_TRUE(sameBits(got, want))
                            << impl->name << " f=" << f_dim
                            << " cb=" << cb_count << " rows=" << nrows
                            << " col0=" << win.col0
                            << " count=" << win.f_count;
                    }
                }
            }
        }
    }
}

TEST_F(KernelParity, LutAccumRandomRowBlocks)
{
    // Seeded random shapes, windows and strides: every impl matches
    // the scalar oracle bit for bit, and leaves stride padding alone.
    Rng rng(46);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t f_dim = 1 + rng.index(80);
        const std::size_t cb_count = 1 + rng.index(24);
        const std::size_t ct_count = 1 + rng.index(17);
        const std::size_t nrows = rng.index(9);
        const std::size_t col0 = rng.index(f_dim);
        const std::size_t f_count = 1 + rng.index(f_dim - col0);
        const std::size_t idx_stride = cb_count + rng.index(4);
        const std::size_t dst_stride = f_count + rng.index(4);
        const auto lut8 = randomInt8(rng, cb_count * ct_count * f_dim);
        const auto lut32 = randomFloats(rng, cb_count * ct_count * f_dim);
        const auto idx = randomIndices(rng, nrows * idx_stride, ct_count);
        const float scale = 0.01f + rng.uniform();

        auto runI8 = [&](const kernels::KernelTable &kt) {
            std::vector<float> dst(nrows * dst_stride, 5.0f);
            kt.lut_accum_i8(idx.data(), idx_stride, nrows, cb_count,
                            ct_count, lut8.data(), f_dim, col0, f_count,
                            scale, dst.data(), dst_stride);
            return dst;
        };
        auto runF32 = [&](const kernels::KernelTable &kt) {
            std::vector<float> dst(nrows * dst_stride, 5.0f);
            kt.lut_accum_f32(idx.data(), idx_stride, nrows, cb_count,
                             ct_count, lut32.data(), f_dim, col0, f_count,
                             dst.data(), dst_stride);
            return dst;
        };
        const auto want8 = runI8(kernels::scalarKernels());
        const auto want32 = runF32(kernels::scalarKernels());
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            const auto got8 = runI8(*impl);
            const auto got32 = runF32(*impl);
            EXPECT_TRUE(sameBits(got8, want8))
                << impl->name << " trial " << trial;
            EXPECT_TRUE(sameBits(got32, want32))
                << impl->name << " trial " << trial;
        }
    }
}

TEST_F(KernelParity, GemmTileRandomShapes)
{
    // Seeded m, n, k in 0..70 (4 x 16 and 4 x 8 tiles, single rows,
    // n % 8 tails, k = 0) with row strides wider than the operands:
    // every impl matches the scalar oracle bit for bit, writes every
    // c[i][j] (C starts as garbage) and leaves the stride padding alone.
    Rng rng(48);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t m = rng.index(71);
        const std::size_t n = rng.index(71);
        const std::size_t k = rng.index(71);
        const std::size_t lda = k + rng.index(5);
        const std::size_t ldb = n + 1 + rng.index(5);
        const std::size_t ldc = n + 1 + rng.index(5);
        const auto a = randomFloats(rng, m * lda);
        const auto b = randomFloats(rng, k * ldb);
        auto run = [&](const kernels::KernelTable &kt) {
            std::vector<float> c(m * ldc, 7.0f);
            kt.gemm_f32(a.data(), lda, b.data(), ldb, c.data(), ldc, m, n,
                        k);
            return c;
        };
        const auto want = run(kernels::scalarKernels());
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = n; j < ldc; ++j)
                ASSERT_EQ(want[i * ldc + j], 7.0f) << "trial " << trial;
        }
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            EXPECT_TRUE(sameBits(run(*impl), want))
                << impl->name << " trial " << trial << " m=" << m
                << " n=" << n << " k=" << k;
        }
    }
}

TEST_F(KernelParity, OneRowOneCentroid)
{
    // Degenerate shapes: a single centroid forces index 0 everywhere;
    // a single-column LUT exercises the all-tail path.
    const float v[] = {0.5f, -1.0f, 2.0f, 0.25f};
    const float centroid[] = {1.0f, 1.0f, -1.0f, 0.0f};
    const float norm = 3.0f;
    const std::uint16_t idx0 = 0;
    const float lut1[] = {4.0f};
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        EXPECT_EQ(impl->ccs_argmin(v, centroid, &norm, 1, 4), 0u)
            << impl->name;
        float out = -1.0f;
        impl->lut_accum_f32(&idx0, 1, 1, 1, 1, lut1, 1, 0, 1, &out, 1);
        EXPECT_EQ(out, 4.0f) << impl->name;
    }
}

TEST_F(KernelGolden, BertBaseCcsLutBlock)
{
    // One BERT-base-shaped block (H=768, F=768, V=4, CT=16) built from
    // pinned seeds. Every implementation must produce bit-identical
    // indices and outputs; the checksums below pin the exact bits so a
    // silent accumulation-order change in any impl fails loudly.
    Rng rng(1234);
    Tensor w(768, 768);
    w.fillGaussian(rng);
    Tensor calib(64, 768);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = 4;
    options.centroids = 16;
    options.quantize_int8 = true;
    options.kmeans.max_iters = 2;
    const LutLayer layer = convertLinearLayer(w, {}, calib, options);

    Tensor input(32, 768);
    Rng in_rng(99);
    input.fillGaussian(in_rng);

    std::uint64_t idx_sum = 0;
    std::uint64_t fp32_sum = 0;
    std::uint64_t int8_sum = 0;
    bool first = true;
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        kernels::setKernelImpl(impl->name);
        const IndexMatrix idx = layer.closestCentroidSearch(input);
        const Tensor out = layer.lookup(idx);
        const Tensor qout = layer.lookupQuantized(idx);
        const std::uint64_t i_sum = faultChecksum(
            idx.data.data(), idx.data.size() * sizeof(std::uint16_t));
        const std::uint64_t f_sum =
            faultChecksum(out.data(), out.size() * sizeof(float));
        const std::uint64_t q_sum =
            faultChecksum(qout.data(), qout.size() * sizeof(float));
        if (first) {
            idx_sum = i_sum;
            fp32_sum = f_sum;
            int8_sum = q_sum;
            first = false;
        } else {
            EXPECT_EQ(i_sum, idx_sum) << impl->name;
            EXPECT_EQ(f_sum, fp32_sum) << impl->name;
            EXPECT_EQ(q_sum, int8_sum) << impl->name;
        }
    }
    kernels::setKernelImpl("");

    // Pinned bits (libstdc++ normal_distribution; both CI toolchains).
    EXPECT_EQ(idx_sum, 0x602427112B6CC7BEULL);
    EXPECT_EQ(fp32_sum, 0x20FDDB39D631D753ULL);
    EXPECT_EQ(int8_sum, 0x637B67DC3888EC07ULL);
}

TEST_F(KernelState, EveryEntryReturnsWithCleanUpperYmm)
{
    // A kernel that returns with dirty upper YMM halves slows later
    // SSE code on that thread (the forward's gelu, glibc's SSE tanhf,
    // took about 2x as long on the persistent parallelFor workers).
    // XINUSE is read right after each call, before any other code of
    // this test runs.
    if (!xinuseReadable())
        GTEST_SKIP() << "XGETBV with ECX=1 is not supported here";
    Rng rng(47);
    std::vector<std::string> dirty;
    // Each read is its own statement, before the label is built: a
    // glibc AVX2 string routine ends in vzeroupper and would hide a
    // dirty return.
    std::uint64_t xinuse = 0;
    const auto check = [&](std::uint64_t state,
                           const kernels::KernelTable &impl,
                           const std::string &what) {
        if ((state & kAvxUpperInUse) != 0)
            dirty.push_back(std::string(impl.name) + " " + what);
    };

    // LUT entries: whole rows, an odd tail, and the fs 6/9/12/16
    // windows at the first and last lane (the 16-column window takes
    // the AVX2 INT8 kernel's two-register window path). A 9-column
    // row takes the scalar fallback inside the AVX2 entry.
    const std::size_t cb_count = 37;
    const std::size_t ct_count = 16;
    const std::size_t nrows = 5;
    for (std::size_t f_dim : {9u, 40u, 768u}) {
        std::vector<Window> wins = {{0, f_dim},
                                    {f_dim / 3, f_dim - f_dim / 3}};
        for (std::size_t fs : {6u, 9u, 12u, 16u}) {
            if (fs > f_dim)
                continue;
            wins.push_back({0, fs});
            wins.push_back({f_dim - fs, fs});
        }
        const auto lut8 = randomInt8(rng, cb_count * ct_count * f_dim);
        const auto lut32 = randomFloats(rng, cb_count * ct_count * f_dim);
        const auto idx = randomIndices(rng, nrows * cb_count, ct_count);
        std::vector<float> dst(nrows * f_dim);
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            for (const Window &win : wins) {
                const std::string shape =
                    "f=" + std::to_string(f_dim) +
                    " col0=" + std::to_string(win.col0) +
                    " count=" + std::to_string(win.f_count);
                impl->lut_accum_i8(idx.data(), cb_count, nrows, cb_count,
                                   ct_count, lut8.data(), f_dim, win.col0,
                                   win.f_count, 0.5f, dst.data(), f_dim);
                xinuse = readXinuse();
                check(xinuse, *impl, "lut_accum_i8 " + shape);
                impl->lut_accum_f32(idx.data(), cb_count, nrows, cb_count,
                                    ct_count, lut32.data(), f_dim,
                                    win.col0, win.f_count, dst.data(),
                                    f_dim);
                xinuse = readXinuse();
                check(xinuse, *impl, "lut_accum_f32 " + shape);
            }
        }
    }

    // CCS: the V=4 fast path (with and without a centroid tail) and
    // the scalar fallback for other sub-vector lengths.
    for (std::size_t v_len : {3u, 4u}) {
        for (std::size_t cts : {16u, 19u}) {
            const auto v = randomFloats(rng, v_len);
            const auto centroids = randomFloats(rng, cts * v_len);
            const auto norms = centroidNorms(centroids, cts, v_len);
            for (const kernels::KernelTable *impl :
                 kernels::availableKernels()) {
                impl->ccs_argmin(v.data(), centroids.data(), norms.data(),
                                 cts, v_len);
                xinuse = readXinuse();
                check(xinuse, *impl,
                      "ccs_argmin v=" + std::to_string(v_len) +
                          " ct=" + std::to_string(cts));
            }
        }
    }

    // GEMM tile: 16- and 8-column strips with single rows and a
    // scalar column tail, a tail-only block, and an empty one.
    for (const std::size_t n : {0u, 5u, 29u, 128u}) {
        const std::size_t m = 7, k = 19;
        const auto a = randomFloats(rng, m * k);
        const auto b = randomFloats(rng, k * n);
        std::vector<float> c(m * n);
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            impl->gemm_f32(a.data(), k, b.data(), n, c.data(), n, m, n, k);
            xinuse = readXinuse();
            check(xinuse, *impl, "gemm n=" + std::to_string(n));
        }
    }

    for (const std::string &entry : dirty)
        ADD_FAILURE() << "upper YMM state dirty after " << entry;
}
