/** @file LUT layer tests: conversion, CCS, lookup, quantization. */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lutnn/converter.h"
#include "lutnn/lut_layer.h"
#include "tensor/gemm.h"

namespace pimdl {
namespace {

/** A layer whose codebooks are learned from the given activations. */
LutLayer
makeLayer(std::size_t h, std::size_t f, std::size_t v, std::size_t ct,
          const Tensor &calib, Rng &rng, std::vector<float> bias = {})
{
    Tensor w(h, f);
    w.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    return convertLinearLayer(w, bias, calib, options);
}

TEST(LutLayer, ExactWhenInputsAreCentroids)
{
    // If every input sub-vector IS a centroid, the LUT result equals the
    // exact GEMM: lookup of precomputed partial products is lossless.
    Rng rng(14);
    Tensor calib(32, 8);
    calib.fillGaussian(rng);
    LutLayer layer = makeLayer(8, 6, 2, 4, calib, rng);

    // Build inputs straight from the codebooks.
    Tensor input(5, 8);
    for (std::size_t r = 0; r < input.rows(); ++r) {
        for (std::size_t cb = 0; cb < 4; ++cb) {
            const std::size_t pick = (r + cb) % 4;
            const float *c = layer.codebooks().centroid(cb, pick);
            input(r, cb * 2) = c[0];
            input(r, cb * 2 + 1) = c[1];
        }
    }

    const Tensor lut_out = layer.forward(input);
    const Tensor gemm_out = gemm(input, layer.weight());
    EXPECT_LT(maxAbsDiff(lut_out, gemm_out), 1e-3f);
}

TEST(LutLayer, LookupEqualsApproximatedGemm)
{
    // For any input, LUT(x) must equal H(x) W exactly (same math, two
    // evaluation orders).
    Rng rng(15);
    Tensor calib(64, 12);
    calib.fillGaussian(rng);
    LutLayer layer = makeLayer(12, 10, 3, 8, calib, rng);

    Tensor input(9, 12);
    input.fillGaussian(rng);
    const Tensor lut_out = layer.forward(input);
    const Tensor approx = layer.approximateActivations(input);
    const Tensor ref = gemm(approx, layer.weight());
    EXPECT_LT(maxAbsDiff(lut_out, ref), 1e-3f);
}

TEST(LutLayer, ApproximationErrorShrinksWithMoreCentroids)
{
    Rng rng(16);
    Tensor calib(256, 8);
    calib.fillGaussian(rng);
    Tensor input(64, 8);
    input.fillGaussian(rng);

    float prev_err = 1e30f;
    for (std::size_t ct : {2u, 4u, 16u, 64u}) {
        Rng wrng(99);
        LutLayer layer = makeLayer(8, 8, 2, ct, calib, wrng);
        const Tensor ref = gemm(input, layer.weight());
        const float err = relativeError(layer.forward(input), ref);
        EXPECT_LE(err, prev_err + 0.02f) << "CT=" << ct;
        prev_err = err;
    }
    // With 64 centroids for 2-dim sub-vectors the error should be small.
    EXPECT_LT(prev_err, 0.2f);
}

TEST(LutLayer, CcsPicksNearestCentroid)
{
    Rng rng(17);
    Tensor calib(64, 6);
    calib.fillGaussian(rng);
    LutLayer layer = makeLayer(6, 4, 2, 4, calib, rng);

    Tensor input(7, 6);
    input.fillGaussian(rng);
    IndexMatrix idx = layer.closestCentroidSearch(input);
    for (std::size_t r = 0; r < input.rows(); ++r) {
        for (std::size_t cb = 0; cb < 3; ++cb) {
            // Brute-force nearest.
            const float *sub = input.rowPtr(r) + cb * 2;
            std::size_t best = 0;
            float best_d = 1e30f;
            for (std::size_t ct = 0; ct < 4; ++ct) {
                const float *c = layer.codebooks().centroid(cb, ct);
                const float d0 = sub[0] - c[0];
                const float d1 = sub[1] - c[1];
                const float d = d0 * d0 + d1 * d1;
                if (d < best_d) {
                    best_d = d;
                    best = ct;
                }
            }
            EXPECT_EQ(idx.at(r, cb), best);
        }
    }
}

TEST(LutLayer, BiasIsAdded)
{
    Rng rng(18);
    Tensor calib(32, 4);
    calib.fillGaussian(rng);
    std::vector<float> bias{1.0f, 2.0f, 3.0f};
    LutLayer with_bias = makeLayer(4, 3, 2, 4, calib, rng, bias);

    Rng rng2(18);
    Tensor calib2(32, 4);
    calib2.fillGaussian(rng2);
    LutLayer no_bias = makeLayer(4, 3, 2, 4, calib2, rng2);

    Tensor input(2, 4);
    input.fillGaussian(rng);
    const Tensor a = with_bias.forward(input);
    const Tensor b = no_bias.forward(input);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(a(r, c) - b(r, c), bias[c], 1e-4f);
    }
}

TEST(LutLayer, QuantizedLookupCloseToFp32)
{
    Rng rng(19);
    Tensor calib(128, 8);
    calib.fillGaussian(rng);
    LutLayer layer = makeLayer(8, 16, 2, 8, calib, rng);
    layer.quantizeTables();
    ASSERT_TRUE(layer.hasQuantizedTables());

    Tensor input(16, 8);
    input.fillGaussian(rng);
    const Tensor fp = layer.forward(input);
    const Tensor q8 = layer.forwardQuantized(input);
    // INT8 quantization of LUT entries: sub-1% relative error expected.
    EXPECT_LT(relativeError(q8, fp), 0.02f);
}

TEST(LutLayer, LutByteSizeMatchesGeometry)
{
    Rng rng(20);
    Tensor calib(32, 8);
    calib.fillGaussian(rng);
    LutLayer layer = makeLayer(8, 6, 2, 4, calib, rng);
    EXPECT_EQ(layer.lutByteSize(1), 4u * 4u * 6u);
    EXPECT_EQ(layer.lutByteSize(4), 4u * 4u * 6u * 4u);
}

TEST(LutLayer, RebuildTablesTracksCodebookEdits)
{
    Rng rng(22);
    Tensor calib(32, 4);
    calib.fillGaussian(rng);
    LutLayer layer = makeLayer(4, 3, 2, 2, calib, rng);

    Tensor input(3, 4);
    input.fillGaussian(rng);
    const Tensor before = layer.forward(input);

    // Perturb the codebooks and rebuild; outputs must change accordingly
    // and still equal H(x) W.
    for (auto &v : layer.codebooks().raw())
        v *= 1.5f;
    layer.codebooks().refreshNorms();
    layer.rebuildTables();

    const Tensor after = layer.forward(input);
    const Tensor ref =
        gemm(layer.approximateActivations(input), layer.weight());
    EXPECT_LT(maxAbsDiff(after, ref), 1e-3f);
    EXPECT_GT(maxAbsDiff(after, before), 1e-4f);
}

TEST(Converter, CalibrationWidthChecked)
{
    Tensor w(8, 4);
    Tensor calib(16, 6);
    ConvertOptions options;
    EXPECT_THROW(convertLinearLayer(w, {}, calib, options),
                 std::runtime_error);
}

} // namespace
} // namespace pimdl
