/**
 * @file
 * The LUT-NN conversion front-end: learns codebooks from calibration
 * activations and converts dense linear layers into LutLayers
 * (the "LUT-NN Converter" box of paper Figure 5).
 */

#ifndef PIMDL_LUTNN_CONVERTER_H
#define PIMDL_LUTNN_CONVERTER_H

#include "lutnn/lut_layer.h"

namespace pimdl {

/** Options for one linear-layer conversion. */
struct ConvertOptions
{
    /** Sub-vector length V. */
    std::size_t subvec_len = 4;
    /** Centroids per codebook CT. */
    std::size_t centroids = 16;
    /** K-means settings used for codebook learning. */
    KMeansOptions kmeans;
    /** Quantize the resulting LUT to INT8 (the UPMEM deployment mode). */
    bool quantize_int8 = false;
};

/**
 * Converts y = x W + b into a LUT layer.
 *
 * @param weight       H x F dense weight matrix.
 * @param bias         optional bias of length F (may be empty).
 * @param calibration  rows x H activation samples feeding this layer.
 * @param options      conversion hyper-parameters.
 */
LutLayer convertLinearLayer(const Tensor &weight,
                            const std::vector<float> &bias,
                            const Tensor &calibration,
                            const ConvertOptions &options);

} // namespace pimdl

#endif // PIMDL_LUTNN_CONVERTER_H
