#include "ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"

namespace pimdl {

namespace {

constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)

/**
 * Rows per parallel block of the row-wise ops: a 16-row serving batch
 * stays inline on the caller, a 1024-row forward spreads over workers.
 * Every row is computed by the same per-row code either way.
 */
constexpr std::size_t kRowGrain = 64;

/**
 * Elements per parallel block of softmaxRows, so its row grain follows
 * the row width: a 128 x 128 attention head splits into four 32-row
 * blocks, while a 16 x 16 serving head (256-row grain) stays inline.
 */
constexpr std::size_t kSoftmaxBlockElems = 4096;

/** out = gelu(x) elementwise, row-parallel; out may be x itself. */
void
geluRows(const Tensor &x, Tensor &out)
{
    const std::size_t cols = x.cols();
    parallelForBlocked(
        x.rows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin * cols; i < end * cols; ++i) {
                const float v = x.data()[i];
                const float inner = kGeluC * (v + 0.044715f * v * v * v);
                out.data()[i] = 0.5f * v * (1.0f + std::tanh(inner));
            }
        });
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    PIMDL_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "shape mismatch in add");
    Tensor out(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] + b.data()[i];
    return out;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    PIMDL_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "shape mismatch in addInPlace");
    for (std::size_t i = 0; i < a.size(); ++i)
        a.data()[i] += b.data()[i];
}

Tensor
relu(const Tensor &x)
{
    Tensor out(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i)
        out.data()[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
    return out;
}

Tensor
gelu(const Tensor &x)
{
    Tensor out(x.rows(), x.cols());
    geluRows(x, out);
    return out;
}

Tensor
gelu(Tensor &&x)
{
    geluRows(x, x);
    return std::move(x);
}

Tensor
geluGrad(const Tensor &x)
{
    Tensor out(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float v = x.data()[i];
        const float inner = kGeluC * (v + 0.044715f * v * v * v);
        const float t = std::tanh(inner);
        const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
        out.data()[i] = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
    }
    return out;
}

Tensor
softmaxRows(const Tensor &x)
{
    Tensor out(x.rows(), x.cols());
    const std::size_t grain =
        kSoftmaxBlockElems / std::max<std::size_t>(1, x.cols());
    parallelForBlocked(
        x.rows(), grain, [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const float *src = x.rowPtr(r);
                float *dst = out.rowPtr(r);
                float max_v = src[0];
                for (std::size_t c = 1; c < x.cols(); ++c)
                    max_v = std::max(max_v, src[c]);
                float sum = 0.0f;
                for (std::size_t c = 0; c < x.cols(); ++c) {
                    dst[c] = std::exp(src[c] - max_v);
                    sum += dst[c];
                }
                const float inv = 1.0f / sum;
                for (std::size_t c = 0; c < x.cols(); ++c)
                    dst[c] *= inv;
            }
        });
    return out;
}

Tensor
layerNormRows(const Tensor &x, const std::vector<float> &gamma,
              const std::vector<float> &beta, float epsilon)
{
    PIMDL_REQUIRE(gamma.size() == x.cols() && beta.size() == x.cols(),
                  "layernorm parameter length mismatch");
    Tensor out(x.rows(), x.cols());
    parallelForBlocked(
        x.rows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const float *src = x.rowPtr(r);
                float *dst = out.rowPtr(r);
                double sum = 0.0;
                for (std::size_t c = 0; c < x.cols(); ++c)
                    sum += src[c];
                const float mu = static_cast<float>(sum / x.cols());
                double var = 0.0;
                for (std::size_t c = 0; c < x.cols(); ++c) {
                    const double d = src[c] - mu;
                    var += d * d;
                }
                const float inv_sigma =
                    1.0f / std::sqrt(static_cast<float>(var / x.cols()) +
                                     epsilon);
                for (std::size_t c = 0; c < x.cols(); ++c)
                    dst[c] = (src[c] - mu) * inv_sigma * gamma[c] +
                             beta[c];
            }
        });
    return out;
}

std::vector<std::size_t>
argmaxRows(const Tensor &x)
{
    PIMDL_REQUIRE(x.cols() > 0, "argmax on empty rows");
    std::vector<std::size_t> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const float *src = x.rowPtr(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < x.cols(); ++c) {
            if (src[c] > src[best])
                best = c;
        }
        out[r] = best;
    }
    return out;
}

Tensor
scale(const Tensor &x, float s)
{
    Tensor out(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i)
        out.data()[i] = x.data()[i] * s;
    return out;
}

float
mean(const Tensor &x)
{
    if (x.empty())
        return 0.0f;
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        sum += x.data()[i];
    return static_cast<float>(sum / x.size());
}

} // namespace pimdl
