/** @file Distributed LUT execution tests: per-PE tiles vs monolithic. */

#include <cstring>

#include <gtest/gtest.h>

#include "lutnn/converter.h"
#include "runtime/lut_executor.h"

namespace pimdl {
namespace {

LutLayer
makeLayerNoBias(std::size_t h, std::size_t f, std::size_t v, std::size_t ct,
                std::uint64_t seed)
{
    Rng rng(seed);
    Tensor w(h, f);
    w.fillGaussian(rng);
    Tensor calib(128, h);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    options.quantize_int8 = true;
    return convertLinearLayer(w, {}, calib, options);
}

/** Largest divisor of @p total that is <= cap. */
std::size_t
divisorUpTo(std::size_t total, std::size_t cap)
{
    for (std::size_t d = std::min(cap, total); d >= 1; --d) {
        if (total % d == 0)
            return d;
    }
    return 1;
}

LutMapping
mappingFor(std::size_t n, std::size_t f, std::size_t groups,
           std::size_t lanes)
{
    LutMapping m;
    m.ns_tile = n / groups;
    m.fs_tile = f / lanes;
    m.nm_tile = divisorUpTo(m.ns_tile, 8);
    m.fm_tile = divisorUpTo(m.fs_tile, 8);
    m.cbm_tile = 1;
    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 1;
    return m;
}

TEST(LutExecutor, MatchesMonolithicLookup)
{
    LutLayer layer = makeLayerNoBias(16, 24, 2, 8, 50);
    Rng rng(51);
    Tensor input(32, 16);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);

    const Tensor reference = layer.lookup(idx);
    for (auto [groups, lanes] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {4, 2}, {8, 3},
          {32, 24}}) {
        LutMapping m = mappingFor(32, 24, groups, lanes);
        m.cbm_tile = 8;
        DistributedLutResult result = runDistributedLut(
            upmemPlatform(), layer, idx, m, /*quantized=*/false);
        EXPECT_LT(maxAbsDiff(result.output, reference), 1e-4f)
            << groups << "x" << lanes;
        EXPECT_EQ(result.pes_used, groups * lanes);
    }
}

TEST(LutExecutor, QuantizedMatchesMonolithicQuantized)
{
    LutLayer layer = makeLayerNoBias(8, 12, 2, 4, 52);
    Rng rng(53);
    Tensor input(16, 8);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);

    const Tensor reference = layer.lookupQuantized(idx);
    LutMapping m = mappingFor(16, 12, 4, 4);
    m.cbm_tile = 4;
    DistributedLutResult result =
        runDistributedLut(upmemPlatform(), layer, idx, m, true);
    EXPECT_LT(maxAbsDiff(result.output, reference), 1e-4f);
}

TEST(LutExecutor, LaneBlocksMatchMonolithicBitExact)
{
    // A fault-free run reduces blocks of adjacent lanes (96 columns)
    // per kernel call. Lane counts that are not a multiple of the
    // block (20 lanes of 6 columns, 13 of 9, 11 of 12) leave a short
    // last block; the output must still be bit-equal to the monolithic
    // lookup, FP32 and INT8 alike.
    for (auto [fs, lanes] :
         {std::pair<std::size_t, std::size_t>{6, 20}, {9, 13}, {12, 11}}) {
        const std::size_t f = fs * lanes;
        const LutLayer layer = makeLayerNoBias(16, f, 2, 8, 60 + fs);
        Rng rng(61);
        Tensor input(24, 16);
        input.fillGaussian(rng);
        const IndexMatrix idx = layer.closestCentroidSearch(input);
        const Tensor want = layer.lookup(idx);
        const Tensor want_q = layer.lookupQuantized(idx);
        for (std::size_t groups : {1u, 3u}) {
            LutMapping m = mappingFor(24, f, groups, lanes);
            m.cbm_tile = 8;
            for (bool quantized : {false, true}) {
                const DistributedLutResult result = runDistributedLut(
                    upmemPlatform(), layer, idx, m, quantized);
                const Tensor &ref = quantized ? want_q : want;
                ASSERT_EQ(result.output.size(), ref.size());
                EXPECT_EQ(std::memcmp(result.output.data(), ref.data(),
                                      ref.size() * sizeof(float)),
                          0)
                    << "fs=" << fs << " lanes=" << lanes
                    << " groups=" << groups << " quantized=" << quantized;
                EXPECT_EQ(result.pes_used, groups * lanes);
            }
        }
    }
}

TEST(LutExecutor, BiasAppliedOnce)
{
    Rng rng(55);
    Tensor w(8, 4);
    w.fillGaussian(rng);
    Tensor calib(64, 8);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = 2;
    options.centroids = 4;
    LutLayer biased = convertLinearLayer(w, {1.0f, 2.0f, 3.0f, 4.0f},
                                         calib, options);

    Tensor input(8, 8);
    input.fillGaussian(rng);
    IndexMatrix idx = biased.closestCentroidSearch(input);
    const Tensor reference = biased.lookup(idx);

    LutMapping m = mappingFor(8, 4, 2, 2);
    m.cbm_tile = 4;
    DistributedLutResult result =
        runDistributedLut(upmemPlatform(), biased, idx, m, false);
    EXPECT_LT(maxAbsDiff(result.output, reference), 1e-4f);
}

TEST(LutExecutor, RejectsIllegalMapping)
{
    LutLayer layer = makeLayerNoBias(8, 12, 2, 4, 56);
    Rng rng(57);
    Tensor input(16, 8);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);
    LutMapping m = mappingFor(16, 12, 4, 4);
    m.ns_tile = 5; // does not divide 16
    EXPECT_THROW(runDistributedLut(upmemPlatform(), layer, idx, m, false),
                 std::runtime_error);
}

TEST(LutExecutor, CostAttachedToResult)
{
    LutLayer layer = makeLayerNoBias(8, 12, 2, 4, 58);
    Rng rng(59);
    Tensor input(16, 8);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);
    LutMapping m = mappingFor(16, 12, 4, 4);
    m.cbm_tile = 4;
    DistributedLutResult result =
        runDistributedLut(upmemPlatform(), layer, idx, m, false);
    EXPECT_TRUE(result.cost.legal);
    EXPECT_GT(result.cost.total(), 0.0);
}

TEST(LutExecutor, ShapeHelper)
{
    LutLayer layer = makeLayerNoBias(8, 12, 2, 4, 60);
    LutWorkloadShape shape = lutShapeFor(layer, 100);
    EXPECT_EQ(shape.n, 100u);
    EXPECT_EQ(shape.cb, 4u);
    EXPECT_EQ(shape.ct, 4u);
    EXPECT_EQ(shape.f, 12u);
}

} // namespace
} // namespace pimdl
