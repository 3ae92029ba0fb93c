#include "lut_layer.h"

#include "common/parallel.h"
#include "kernels/kernels.h"

namespace pimdl {

namespace {

/**
 * Rows per parallel block for the CCS / lookup loops: large enough to
 * amortize the per-block dispatch, small enough to load-balance.
 */
constexpr std::size_t kRowGrain = 16;

/**
 * Rows per parallel block of the bias add, a memory-bound pass far
 * cheaper per row than a lookup: a serving batch of up to 128 rows
 * stays inline, a 1024-row forward splits eight ways.
 */
constexpr std::size_t kBiasRowGrain = 128;

} // namespace

LutLayer
LutLayer::convert(const Tensor &w, CodebookSet codebooks,
                  std::vector<float> bias)
{
    LutLayer layer;
    layer.shape_.input_dim = w.rows();
    layer.shape_.output_dim = w.cols();
    layer.shape_.subvec_len = codebooks.subvecLen();
    layer.shape_.centroids = codebooks.centroids();
    layer.shape_.validate();
    PIMDL_REQUIRE(codebooks.codebooks() == layer.shape_.codebooks(),
                  "codebook count must equal H / V");
    if (!bias.empty()) {
        PIMDL_REQUIRE(bias.size() == w.cols(), "bias length mismatch");
    }

    layer.codebooks_ = std::move(codebooks);
    layer.weight_ = w;
    layer.bias_ = std::move(bias);
    layer.rebuildTables();
    return layer;
}

void
LutLayer::rebuildTables()
{
    const std::size_t cb_count = shape_.codebooks();
    const std::size_t ct_count = shape_.centroids;
    const std::size_t f_count = shape_.output_dim;
    const std::size_t v_len = shape_.subvec_len;

    lut_.assign(cb_count * ct_count * f_count, 0.0f);

    // lut[cb][ct][f] = centroid(cb, ct) . W[cb*V:(cb+1)*V, f]
    parallelFor(cb_count, [&](std::size_t cb) {
        for (std::size_t ct = 0; ct < ct_count; ++ct) {
            const float *c = codebooks_.centroid(cb, ct);
            float *dst = lut_.data() + (cb * ct_count + ct) * f_count;
            for (std::size_t v = 0; v < v_len; ++v) {
                const float cv = c[v];
                const float *wrow = weight_.rowPtr(cb * v_len + v);
                for (std::size_t f = 0; f < f_count; ++f)
                    dst[f] += cv * wrow[f];
            }
        }
    });

    if (quant_lut_.has_value()) {
        quant_lut_.reset();
        quantizeTables();
    }
}

void
LutLayer::quantizeTables()
{
    if (quant_lut_.has_value())
        return;
    Tensor flat(shape_.codebooks() * shape_.centroids, shape_.output_dim,
                lut_);
    quant_lut_ = quantizeSymmetric(flat);
}

IndexMatrix
LutLayer::closestCentroidSearch(const Tensor &input) const
{
    PIMDL_REQUIRE(input.cols() == shape_.input_dim,
                  "input width mismatch in CCS");
    const std::size_t cb_count = shape_.codebooks();
    const std::size_t v_len = shape_.subvec_len;

    IndexMatrix indices(input.rows(), cb_count);
    const kernels::KernelTable &kt = kernels::best();
    kernels::recordCcsWork(input.rows(), cb_count, shape_.centroids,
                           v_len);
    parallelForBlocked(
        input.rows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const float *row = input.rowPtr(r);
                std::uint16_t *dst = &indices.at(r, 0);
                for (std::size_t cb = 0; cb < cb_count; ++cb) {
                    dst[cb] = static_cast<std::uint16_t>(kt.ccs_argmin(
                        row + cb * v_len, codebooks_.centroid(cb, 0),
                        codebooks_.normsPtr(cb), shape_.centroids,
                        v_len));
                }
            }
        });
    return indices;
}

Tensor
LutLayer::lookup(const IndexMatrix &indices) const
{
    PIMDL_REQUIRE(indices.cols == shape_.codebooks(),
                  "index width mismatch in lookup");
    const std::size_t f_count = shape_.output_dim;
    const std::size_t ct_count = shape_.centroids;

    Tensor out(indices.rows, f_count);
    const kernels::KernelTable &kt = kernels::best();
    kernels::recordLutWork(indices.rows, indices.cols, f_count,
                           sizeof(float));
    parallelForBlocked(
        indices.rows, kRowGrain, [&](std::size_t begin, std::size_t end) {
            kt.lut_accum_f32(indices.data.data() + begin * indices.cols,
                             indices.cols, end - begin, indices.cols,
                             ct_count, lut_.data(), f_count, 0, f_count,
                             out.rowPtr(begin), f_count);
        });
    addBiasRows(out);
    return out;
}

Tensor
LutLayer::lookupQuantized(const IndexMatrix &indices) const
{
    PIMDL_REQUIRE(quant_lut_.has_value(),
                  "quantizeTables() must run before lookupQuantized");
    PIMDL_REQUIRE(indices.cols == shape_.codebooks(),
                  "index width mismatch in lookup");
    const std::size_t f_count = shape_.output_dim;
    const std::size_t ct_count = shape_.centroids;
    const QuantizedTensor &qlut = *quant_lut_;

    Tensor out(indices.rows, f_count);
    const kernels::KernelTable &kt = kernels::best();
    kernels::recordLutWork(indices.rows, indices.cols, f_count,
                           sizeof(std::int8_t));
    parallelForBlocked(
        indices.rows, kRowGrain, [&](std::size_t begin, std::size_t end) {
            kt.lut_accum_i8(indices.data.data() + begin * indices.cols,
                            indices.cols, end - begin, indices.cols,
                            ct_count, qlut.data.data(), f_count, 0,
                            f_count, qlut.scale, out.rowPtr(begin),
                            f_count);
        });
    addBiasRows(out);
    return out;
}

Tensor
LutLayer::forward(const Tensor &input) const
{
    return lookup(closestCentroidSearch(input));
}

Tensor
LutLayer::forwardQuantized(const Tensor &input) const
{
    return lookupQuantized(closestCentroidSearch(input));
}

Tensor
LutLayer::approximateActivations(const Tensor &input) const
{
    PIMDL_REQUIRE(input.cols() == shape_.input_dim,
                  "input width mismatch in approximateActivations");
    const std::size_t cb_count = shape_.codebooks();
    const std::size_t v_len = shape_.subvec_len;

    Tensor out(input.rows(), input.cols());
    parallelFor(input.rows(), [&](std::size_t r) {
        const float *src = input.rowPtr(r);
        float *dst = out.rowPtr(r);
        for (std::size_t cb = 0; cb < cb_count; ++cb) {
            const std::size_t ct = codebooks_.nearest(cb, src + cb * v_len);
            const float *c = codebooks_.centroid(cb, ct);
            for (std::size_t v = 0; v < v_len; ++v)
                dst[cb * v_len + v] = c[v];
        }
    });
    return out;
}

void
LutLayer::addBiasRows(Tensor &out) const
{
    if (bias_.empty())
        return;
    PIMDL_REQUIRE(out.cols() == bias_.size(), "bias length mismatch");
    parallelForBlocked(
        out.rows(), kBiasRowGrain, [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                float *dst = out.rowPtr(r);
                for (std::size_t f = 0; f < out.cols(); ++f)
                    dst[f] += bias_[f];
            }
        });
}

} // namespace pimdl
