#include "converter.h"

namespace pimdl {

LutLayer
convertLinearLayer(const Tensor &weight, const std::vector<float> &bias,
                   const Tensor &calibration, const ConvertOptions &options)
{
    PIMDL_REQUIRE(calibration.cols() == weight.rows(),
                  "calibration width must match weight input dim");

    CodebookSet codebooks = CodebookSet::learn(
        calibration, options.subvec_len, options.centroids, options.kmeans);

    LutLayer layer = LutLayer::convert(weight, std::move(codebooks), bias);
    if (options.quantize_int8)
        layer.quantizeTables();
    return layer;
}

} // namespace pimdl
