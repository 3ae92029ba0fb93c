/**
 * @file
 * The LUT-NN linear layer: conversion from a GEMM weight matrix into
 * pre-computed lookup tables plus inference via closest-centroid search
 * (CCS) and table lookup/accumulation (paper Sections 3.1 and 3.2).
 */

#ifndef PIMDL_LUTNN_LUT_LAYER_H
#define PIMDL_LUTNN_LUT_LAYER_H

#include <optional>
#include <vector>

#include "lutnn/codebook.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace pimdl {

/**
 * A linear layer y = x W + b whose GEMM has been replaced by lookup
 * tables.
 *
 * Storage layout of the LUT is [cb][ct][f] so that all CT candidate rows
 * of one codebook are contiguous — the layout the paper's coarse-grain
 * load scheme streams into PE buffers.
 */
class LutLayer
{
  public:
    LutLayer() = default;

    /**
     * Converts weight @p w (H x F) into LUTs using @p codebooks
     * (paper Figure 2-(b), steps 2-3). Bias is optional.
     */
    static LutLayer convert(const Tensor &w, CodebookSet codebooks,
                            std::vector<float> bias = {});

    /** Layer shape descriptor. */
    const LutShape &shape() const { return shape_; }

    /** The codebooks used for CCS. */
    const CodebookSet &codebooks() const { return codebooks_; }

    /** Mutable codebooks (used by the eLUT-NN calibrator). */
    CodebookSet &codebooks() { return codebooks_; }

    /**
     * Closest-centroid search: maps input (N x H) to an N x CB index
     * matrix (paper steps 4-5). This is the host-side operator.
     */
    IndexMatrix closestCentroidSearch(const Tensor &input) const;

    /**
     * Table lookup and accumulation: maps an index matrix to the N x F
     * output (paper steps 6-8). This is the PIM-side operator.
     */
    Tensor lookup(const IndexMatrix &indices) const;

    /** Lookup using the INT8-quantized LUT with INT32 accumulation. */
    Tensor lookupQuantized(const IndexMatrix &indices) const;

    /** Full LUT-NN forward: CCS then lookup (FP32 LUT). */
    Tensor forward(const Tensor &input) const;

    /** Full LUT-NN forward using the INT8 LUT. */
    Tensor forwardQuantized(const Tensor &input) const;

    /**
     * Replaces every input sub-vector with its nearest centroid. This is
     * H(A) from Eq. (1); the reconstruction loss compares A W to H(A) W.
     */
    Tensor approximateActivations(const Tensor &input) const;

    /**
     * Rebuilds the LUT (and its INT8 twin) from the current codebooks and
     * the retained weight matrix; called after centroid calibration.
     */
    void rebuildTables();

    /** Quantizes the LUT to INT8 (enables lookupQuantized). */
    void quantizeTables();

    /** True when an INT8 LUT is present. */
    bool hasQuantizedTables() const { return quant_lut_.has_value(); }

    /** FP32 LUT entry (cb, ct, f). */
    float lutValue(std::size_t cb, std::size_t ct, std::size_t f) const
    {
        return lut_[(cb * shape_.centroids + ct) * shape_.output_dim + f];
    }

    /** INT8 LUT entry (cb, ct, f); requires quantizeTables(). */
    std::int8_t
    quantLutValue(std::size_t cb, std::size_t ct, std::size_t f) const
    {
        return quant_lut_->data[(cb * shape_.centroids + ct) *
                                    shape_.output_dim + f];
    }

    /** Symmetric scale of the INT8 LUT; requires quantizeTables(). */
    float quantScale() const { return quant_lut_->scale; }

    /** Raw FP32 LUT storage, flattened [cb][ct][f]; the layout the
     * gather-accumulate kernels consume. */
    const float *lutData() const { return lut_.data(); }

    /** Raw INT8 LUT storage ([cb][ct][f]); requires quantizeTables(). */
    const std::int8_t *quantLutData() const
    {
        return quant_lut_->data.data();
    }

    /** LUT payload size in bytes for the given datatype width. */
    std::size_t lutByteSize(std::size_t dtype_bytes = 1) const
    {
        return shape_.codebooks() * shape_.centroids * shape_.output_dim *
               dtype_bytes;
    }

    /** The retained original weight matrix (H x F). */
    const Tensor &weight() const { return weight_; }

    /** Layer bias (length F, may be empty). */
    const std::vector<float> &bias() const { return bias_; }

    /**
     * Adds the bias to every row of @p out (N x F), row blocks in
     * parallel: out[r][f] + bias[f] per element, so the result does not
     * depend on the split. No-op without a bias. The distributed
     * executor applies it host-side after gathering the tiles.
     */
    void addBiasRows(Tensor &out) const;

  private:
    LutShape shape_;
    CodebookSet codebooks_;
    Tensor weight_;
    std::vector<float> bias_;
    /** FP32 LUT, flattened [cb][ct][f]. */
    std::vector<float> lut_;
    /** Optional INT8 LUT with a single symmetric scale. */
    std::optional<QuantizedTensor> quant_lut_;
};

} // namespace pimdl

#endif // PIMDL_LUTNN_LUT_LAYER_H
