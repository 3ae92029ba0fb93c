/**
 * @file
 * google-benchmark microbenchmarks of the functional kernels behind
 * PIM-DL: GEMM, k-means codebook learning, closest-centroid search,
 * LUT lookup (FP32 and INT8), and the distributed PE executor. These
 * measure this repository's host implementations (the functional
 * simulator substrate), not the modeled DRAM-PIM hardware.
 *
 * Invoked with `--json [path]` the binary skips google-benchmark and
 * instead times every dispatchable kernel implementation (scalar,
 * generic, avx2, ...) on BERT-base shapes, verifies each SIMD impl is
 * bit-identical to the scalar reference, and writes a machine-readable
 * BENCH_kernels.json consumed by scripts/check_bench.py (the CI
 * perf-regression gate).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "lutnn/converter.h"
#include "obs/json.h"
#include "runtime/lut_executor.h"
#include "tensor/gemm.h"

using namespace pimdl;

namespace {

LutLayer
makeLayer(std::size_t h, std::size_t f, std::size_t v, std::size_t ct)
{
    Rng rng(1234);
    Tensor w(h, f);
    w.fillGaussian(rng);
    Tensor calib(256, h);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    options.quantize_int8 = true;
    options.kmeans.max_iters = 8;
    return convertLinearLayer(w, {}, calib, options);
}

void
BM_GemmBlocked(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    Tensor a(n, 256), b(256, 256);
    a.fillGaussian(rng);
    b.fillGaussian(rng);
    for (auto _ : state) {
        Tensor c = gemm(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(2 * n * 256 * 256));
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(256);

void
BM_CodebookLearn(benchmark::State &state)
{
    Rng rng(8);
    Tensor activations(512, 64);
    activations.fillGaussian(rng);
    KMeansOptions opts;
    opts.max_iters = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        CodebookSet set = CodebookSet::learn(activations, 4, 16, opts);
        benchmark::DoNotOptimize(set.raw().data());
    }
}
BENCHMARK(BM_CodebookLearn)->Arg(4)->Arg(16);

void
BM_ClosestCentroidSearch(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    LutLayer layer = makeLayer(128, 256, 4, 16);
    Rng rng(9);
    Tensor input(n, 128);
    input.fillGaussian(rng);
    for (auto _ : state) {
        IndexMatrix idx = layer.closestCentroidSearch(input);
        benchmark::DoNotOptimize(idx.data.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * 32));
}
BENCHMARK(BM_ClosestCentroidSearch)->Arg(64)->Arg(512);

void
BM_LutLookupFp32(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    LutLayer layer = makeLayer(128, 256, 4, 16);
    Rng rng(10);
    Tensor input(n, 128);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);
    for (auto _ : state) {
        Tensor out = layer.lookup(idx);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * 32 * 256));
}
BENCHMARK(BM_LutLookupFp32)->Arg(64)->Arg(512);

void
BM_LutLookupInt8(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    LutLayer layer = makeLayer(128, 256, 4, 16);
    Rng rng(11);
    Tensor input(n, 128);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);
    for (auto _ : state) {
        Tensor out = layer.lookupQuantized(idx);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * 32 * 256));
}
BENCHMARK(BM_LutLookupInt8)->Arg(64)->Arg(512);

void
BM_DistributedLutExecutor(benchmark::State &state)
{
    const std::size_t n = 256;
    LutLayer layer = makeLayer(64, 128, 4, 16);
    Rng rng(12);
    Tensor input(n, 64);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);

    LutMapping mapping;
    mapping.ns_tile = 32;  // 8 groups
    mapping.fs_tile = 16;  // 8 lanes
    mapping.nm_tile = 8;
    mapping.fm_tile = 8;
    mapping.cbm_tile = 16;
    mapping.scheme = LutLoadScheme::CoarseGrain;
    mapping.cb_load_tile = 2;
    mapping.f_load_tile = 8;

    const PimPlatformConfig platform = upmemPlatform();
    for (auto _ : state) {
        DistributedLutResult result =
            runDistributedLut(platform, layer, idx, mapping, true);
        benchmark::DoNotOptimize(result.output.data());
    }
}
BENCHMARK(BM_DistributedLutExecutor);

// --------------------------------------------------------------------
// --json harness: per-impl micro-kernel timing + bit-exactness check.
// --------------------------------------------------------------------

/** One (kernel, impl, shape) measurement destined for the JSON file. */
struct BenchEntry
{
    std::string kernel;
    std::string impl;
    std::string shape;
    double ns_per_op = 0.0;
    double gb_per_s = 0.0;
    double gops = 0.0;
    double speedup_vs_scalar = 1.0;
};

using Clock = std::chrono::steady_clock;

double
passSeconds(const std::function<void()> &pass)
{
    const auto t0 = Clock::now();
    pass();
    const auto t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Times @p pass (which makes @p calls kernel invocations) and returns
 * the best-of-five ns per invocation. Repetitions are auto-scaled so
 * each measurement covers at least ~40 ms of wall clock; taking the
 * minimum across repeated windows rejects scheduler and frequency
 * noise, which the CI perf gate depends on.
 */
double
nsPerCall(const std::function<void()> &pass, std::size_t calls)
{
    pass(); // warm caches and the branch predictor
    const double once = passSeconds(pass);
    std::size_t reps = 1;
    while (once * static_cast<double>(reps) < 0.04 &&
           reps < (std::size_t{1} << 20))
        reps *= 2;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < reps; ++i)
            pass();
        const auto t1 = Clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count() /
                      static_cast<double>(reps));
    }
    return best * 1e9 / static_cast<double>(calls);
}

[[noreturn]] void
exactnessFailure(const std::string &kernel, const char *impl,
                 const std::string &shape)
{
    std::fprintf(stderr,
                 "bit-exactness violation: kernel=%s impl=%s shape=%s "
                 "differs from scalar\n",
                 kernel.c_str(), impl, shape.c_str());
    std::exit(1);
}

std::vector<float>
gaussianVec(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.gaussian();
    return v;
}

/**
 * Times and checks @p field of every available impl. An impl whose
 * entry is the scalar function itself (the generic table reuses the
 * scalar reference for kernels it does not vectorize) gets no row.
 */
template <typename Fn>
void
appendEntries(std::vector<BenchEntry> &entries, const std::string &kernel,
              Fn kernels::KernelTable::*field, const std::string &shape,
              double bytes_per_op, double ops_per_op,
              const std::function<double(const kernels::KernelTable &)>
                  &measure,
              const std::function<bool(const kernels::KernelTable &)>
                  &matchesScalar)
{
    const kernels::KernelTable &scalar = kernels::scalarKernels();
    double scalar_ns = 0.0;
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        if (impl != &scalar && impl->*field == scalar.*field)
            continue;
        if (!matchesScalar(*impl))
            exactnessFailure(kernel, impl->name, shape);
        BenchEntry e;
        e.kernel = kernel;
        e.impl = impl->name;
        e.shape = shape;
        e.ns_per_op = measure(*impl);
        e.gb_per_s = bytes_per_op / e.ns_per_op;
        e.gops = ops_per_op / e.ns_per_op;
        if (std::string(impl->name) == "scalar")
            scalar_ns = e.ns_per_op;
        e.speedup_vs_scalar = scalar_ns > 0.0 ? scalar_ns / e.ns_per_op
                                              : 1.0;
        std::printf("%-14s %-8s %-22s %12.2f ns/op %8.2f GB/s "
                    "%8.2f GOPS %6.2fx\n",
                    e.kernel.c_str(), e.impl.c_str(), e.shape.c_str(),
                    e.ns_per_op, e.gb_per_s, e.gops,
                    e.speedup_vs_scalar);
        entries.push_back(std::move(e));
    }
}

/** CCS argmin over a BERT-base hidden block: one op = one argmin. */
void
benchCcs(std::vector<BenchEntry> &entries)
{
    const std::size_t n = 128, h = 768, v = 4, ct = 16;
    const std::size_t cb = h / v;
    const std::string shape = "n128.h768.v4.ct16";
    Rng rng(21);
    const auto input = gaussianVec(rng, n * h);
    const auto centroids = gaussianVec(rng, cb * ct * v);
    std::vector<float> norms(cb * ct, 0.0f);
    for (std::size_t i = 0; i < cb * ct; ++i) {
        for (std::size_t d = 0; d < v; ++d) {
            const float c = centroids[i * v + d];
            norms[i] += c * c;
        }
    }

    auto runAll = [&](const kernels::KernelTable &kt,
                      std::vector<std::uint16_t> &idx) {
        for (std::size_t r = 0; r < n; ++r) {
            const float *row = input.data() + r * h;
            for (std::size_t c = 0; c < cb; ++c) {
                idx[r * cb + c] = static_cast<std::uint16_t>(
                    kt.ccs_argmin(row + c * v,
                                  centroids.data() + c * ct * v,
                                  norms.data() + c * ct, ct, v));
            }
        }
    };
    std::vector<std::uint16_t> want(n * cb);
    runAll(kernels::scalarKernels(), want);

    const double bytes = static_cast<double>(v + ct * v + ct) * 4.0;
    const double ops = static_cast<double>(2 * ct * v + 2 * ct);
    std::vector<std::uint16_t> idx(n * cb);
    appendEntries(
        entries, "ccs_argmin", &kernels::KernelTable::ccs_argmin, shape,
        bytes, ops,
        [&](const kernels::KernelTable &kt) {
            return nsPerCall([&] { runAll(kt, idx); }, n * cb);
        },
        [&](const kernels::KernelTable &kt) {
            runAll(kt, idx);
            return idx == want;
        });
}

/** LUT gather-accumulate: one op = one output row. */
void
benchLutF32(std::vector<BenchEntry> &entries, std::size_t f)
{
    const std::size_t n = 128, cb = 192, ct = 16;
    const std::string shape = "n128.cb192.ct16.f" + std::to_string(f);
    Rng rng(22);
    const auto lut = gaussianVec(rng, cb * ct * f);
    std::vector<std::uint16_t> idx(n * cb);
    for (std::uint16_t &x : idx)
        x = static_cast<std::uint16_t>(rng.index(ct));

    auto runAll = [&](const kernels::KernelTable &kt,
                      std::vector<float> &out) {
        kt.lut_accum_f32(idx.data(), cb, n, cb, ct, lut.data(), f, 0, f,
                         out.data(), f);
    };
    std::vector<float> want(n * f);
    runAll(kernels::scalarKernels(), want);

    const double bytes =
        static_cast<double>(cb) * (2.0 + 4.0 * static_cast<double>(f)) +
        4.0 * static_cast<double>(f);
    const double ops = static_cast<double>(cb * f);
    std::vector<float> out(n * f);
    appendEntries(
        entries, "lut_accum_f32", &kernels::KernelTable::lut_accum_f32,
        shape, bytes, ops,
        [&](const kernels::KernelTable &kt) {
            return nsPerCall([&] { runAll(kt, out); }, n);
        },
        [&](const kernels::KernelTable &kt) {
            runAll(kt, out);
            return std::memcmp(out.data(), want.data(),
                               out.size() * sizeof(float)) == 0;
        });
}

/**
 * INT8 LUT gather-accumulate: one op = one dequantized output row.
 * With @p fs_tile == 0 each call reduces whole rows (the HostLut
 * shape); otherwise the row is split into f / fs_tile column tiles of
 * n rows each, one kernel call per tile, the way the distributed LUT
 * executor reduces a (group, lane) tile.
 */
void
benchLutI8(std::vector<BenchEntry> &entries, std::size_t f,
           std::size_t fs_tile)
{
    const std::size_t n = 128, cb = 192, ct = 16;
    std::string shape = "n128.cb192.ct16.f" + std::to_string(f);
    if (fs_tile != 0)
        shape += ".fs" + std::to_string(fs_tile);
    const std::size_t tile = fs_tile != 0 ? fs_tile : f;
    Rng rng(23);
    std::vector<std::int8_t> lut(cb * ct * f);
    for (std::int8_t &x : lut)
        x = static_cast<std::int8_t>(rng.integer(-128, 127));
    std::vector<std::uint16_t> idx(n * cb);
    for (std::uint16_t &x : idx)
        x = static_cast<std::uint16_t>(rng.index(ct));
    const float scale = 0.0078125f;

    auto runAll = [&](const kernels::KernelTable &kt,
                      std::vector<float> &out) {
        for (std::size_t col0 = 0; col0 < f; col0 += tile) {
            kt.lut_accum_i8(idx.data(), cb, n, cb, ct, lut.data(), f,
                            col0, tile, scale, out.data() + col0, f);
        }
    };
    std::vector<float> want(n * f);
    runAll(kernels::scalarKernels(), want);

    const double bytes =
        static_cast<double>(cb) * (2.0 + static_cast<double>(f)) +
        4.0 * static_cast<double>(f);
    const double ops = static_cast<double>(cb * f);
    std::vector<float> out(n * f);
    appendEntries(
        entries, "lut_accum_i8", &kernels::KernelTable::lut_accum_i8,
        shape, bytes, ops,
        [&](const kernels::KernelTable &kt) {
            return nsPerCall([&] { runAll(kt, out); }, n);
        },
        [&](const kernels::KernelTable &kt) {
            runAll(kt, out);
            return std::memcmp(out.data(), want.data(),
                               out.size() * sizeof(float)) == 0;
        });
}

/**
 * GEMM tile at an attention-head shape: one op = one m x n output
 * block over k, the single call gemm() makes per row shard.
 */
void
benchGemm(std::vector<BenchEntry> &entries, std::size_t m, std::size_t k,
          std::size_t n)
{
    const std::string shape = "m" + std::to_string(m) + ".k" +
                              std::to_string(k) + ".n" + std::to_string(n);
    Rng rng(24);
    const auto a = gaussianVec(rng, m * k);
    const auto b = gaussianVec(rng, k * n);

    auto runAll = [&](const kernels::KernelTable &kt,
                      std::vector<float> &c) {
        kt.gemm_f32(a.data(), k, b.data(), n, c.data(), n, m, n, k);
    };
    std::vector<float> want(m * n);
    runAll(kernels::scalarKernels(), want);

    const double bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);
    const double ops = 2.0 * static_cast<double>(m * n * k);
    std::vector<float> c(m * n);
    appendEntries(
        entries, "gemm_f32", &kernels::KernelTable::gemm_f32, shape, bytes,
        ops,
        [&](const kernels::KernelTable &kt) {
            return nsPerCall([&] { runAll(kt, c); }, 1);
        },
        [&](const kernels::KernelTable &kt) {
            runAll(kt, c);
            return std::memcmp(c.data(), want.data(),
                               c.size() * sizeof(float)) == 0;
        });
}

int
runJsonHarness(const std::string &path)
{
    std::vector<BenchEntry> entries;
    benchCcs(entries);
    benchLutF32(entries, 768);
    benchLutF32(entries, 3072);
    benchLutI8(entries, 768, 0);
    benchLutI8(entries, 3072, 0);
    benchLutI8(entries, 768, 6);
    // A 128-token head (scores, then context) and a 16-token one.
    benchGemm(entries, 128, 64, 128);
    benchGemm(entries, 128, 128, 64);
    benchGemm(entries, 16, 64, 16);

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return 1;
    }
    out << "{\n  \"schema\": \"pimdl.bench.kernels.v1\",\n"
        << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const BenchEntry &e = entries[i];
        out << "    {\"kernel\": " << obs::jsonString(e.kernel)
            << ", \"impl\": " << obs::jsonString(e.impl)
            << ", \"shape\": " << obs::jsonString(e.shape)
            << ", \"ns_per_op\": " << obs::jsonNumber(e.ns_per_op)
            << ", \"gb_per_s\": " << obs::jsonNumber(e.gb_per_s)
            << ", \"gops\": " << obs::jsonNumber(e.gops)
            << ", \"speedup_vs_scalar\": "
            << obs::jsonNumber(e.speedup_vs_scalar) << "}"
            << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %zu entries to %s\n", entries.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            const std::string path =
                i + 1 < argc ? argv[i + 1] : "BENCH_kernels.json";
            return runJsonHarness(path);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
