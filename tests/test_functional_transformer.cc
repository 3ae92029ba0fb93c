/** @file End-to-end functional transformer integration tests. */

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/functional_transformer.h"
#include "tensor/gemm.h"

namespace pimdl {
namespace {

FunctionalTransformerConfig
smallConfig()
{
    FunctionalTransformerConfig cfg;
    cfg.hidden = 16;
    cfg.ffn = 32;
    cfg.layers = 2;
    cfg.heads = 2;
    cfg.subvec_len = 2;
    cfg.centroids = 16;
    return cfg;
}

/** Low-rank tokens: LUT-NN approximates structured activations well. */
Tensor
makeTokens(std::size_t rows, std::size_t hidden, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor basis(4, hidden);
    basis.fillGaussian(rng);
    Tensor latent(rows, 4);
    latent.fillGaussian(rng);
    Tensor tokens(rows, hidden);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < hidden; ++c) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < 4; ++k)
                acc += latent(r, k) * basis(k, c);
            tokens(r, c) = acc;
        }
    }
    return tokens;
}

class FunctionalTransformerTest : public ::testing::Test
{
  protected:
    FunctionalTransformerTest()
        : model_(smallConfig()),
          calib_(makeTokens(16 * 8, smallConfig().hidden, 1)),
          input_(makeTokens(4 * 8, smallConfig().hidden, 2))
    {}

    FunctionalTransformer model_;
    Tensor calib_;
    Tensor input_;
    static constexpr std::size_t kSeq = 8;
};

TEST_F(FunctionalTransformerTest, DenseForwardIsDeterministic)
{
    const Tensor a = model_.forward(input_, kSeq,
                                    LinearBackendKind::Dense);
    const Tensor b = model_.forward(input_, kSeq,
                                    LinearBackendKind::Dense);
    EXPECT_EQ(maxAbsDiff(a, b), 0.0f);
    EXPECT_EQ(a.rows(), input_.rows());
    EXPECT_EQ(a.cols(), smallConfig().hidden);
}

TEST_F(FunctionalTransformerTest, LutBackendRequiresConversion)
{
    EXPECT_THROW(model_.forward(input_, kSeq,
                                LinearBackendKind::HostLut),
                 std::runtime_error);
}

TEST_F(FunctionalTransformerTest, HostLutTracksDense)
{
    model_.convertToLut(calib_, kSeq);
    const Tensor dense =
        model_.forward(input_, kSeq, LinearBackendKind::Dense);
    const Tensor lut =
        model_.forward(input_, kSeq, LinearBackendKind::HostLut);
    // LUT-NN is an approximation, and an untrained random transformer is
    // its worst case (intermediate activations have no cluster
    // structure; the paper calibrates trained models). The end-to-end
    // error must still stay bounded through both blocks.
    EXPECT_LT(relativeError(lut, dense), 0.65f);
}

TEST_F(FunctionalTransformerTest, PimBackendMatchesHostLutClosely)
{
    // The distributed execution computes exactly what host-side INT8
    // LUT inference computes: same indices, same INT8 tables, same
    // accumulation — only sharded across PEs.
    model_.convertToLut(calib_, kSeq);
    model_.planPimExecution(upmemPlatform(), input_.rows());
    const Tensor host =
        model_.forward(input_, kSeq, LinearBackendKind::HostLut);
    const Tensor pim =
        model_.forward(input_, kSeq, LinearBackendKind::PimLut);
    EXPECT_LT(maxAbsDiff(pim, host), 1e-4f);
}

TEST_F(FunctionalTransformerTest, PimBackendNeedsPlan)
{
    model_.convertToLut(calib_, kSeq);
    EXPECT_THROW(model_.forward(input_, kSeq,
                                LinearBackendKind::PimLut),
                 std::runtime_error);
}

TEST_F(FunctionalTransformerTest, RejectsBadTokenWidth)
{
    Tensor bad(8, smallConfig().hidden + 2);
    EXPECT_THROW(model_.forward(bad, kSeq, LinearBackendKind::Dense),
                 std::runtime_error);
}

TEST_F(FunctionalTransformerTest, RejectsNonDividingSeqLen)
{
    EXPECT_THROW(model_.forward(input_, 7, LinearBackendKind::Dense),
                 std::runtime_error);
}

/**
 * Serial reference of the encoder forward, written out apart from the
 * library's parallel ops: gemmNaive, one loop per row, and the same
 * libm calls in the same expressions. The library's forward must match
 * it bit for bit whatever the thread count or kernel impl.
 */
namespace ref {

Tensor
denseLinear(const Tensor &x, const Tensor &w, const std::vector<float> &b)
{
    Tensor y = gemmNaive(x, w);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        for (std::size_t c = 0; c < y.cols(); ++c)
            y(r, c) += b[c];
    }
    return y;
}

/** CCS, INT8 LUT sums, dequantization, then bias: forwardQuantized. */
Tensor
lutLinear(const LutLayer &lut, const Tensor &x)
{
    const std::size_t cb_count = lut.shape().codebooks();
    const std::size_t v_len = lut.shape().subvec_len;
    const std::size_t f_count = lut.shape().output_dim;
    Tensor y(x.rows(), f_count);
    std::vector<std::int32_t> acc(f_count);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        std::fill(acc.begin(), acc.end(), 0);
        for (std::size_t cb = 0; cb < cb_count; ++cb) {
            const std::size_t ct =
                lut.codebooks().nearest(cb, x.rowPtr(r) + cb * v_len);
            for (std::size_t f = 0; f < f_count; ++f)
                acc[f] += lut.quantLutValue(cb, ct, f);
        }
        for (std::size_t f = 0; f < f_count; ++f)
            y(r, f) = static_cast<float>(acc[f]) * lut.quantScale();
        for (std::size_t f = 0; f < lut.bias().size(); ++f)
            y(r, f) += lut.bias()[f];
    }
    return y;
}

Tensor
softmax(const Tensor &x)
{
    Tensor out(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        float max_v = x(r, 0);
        for (std::size_t c = 1; c < x.cols(); ++c)
            max_v = std::max(max_v, x(r, c));
        float sum = 0.0f;
        for (std::size_t c = 0; c < x.cols(); ++c) {
            out(r, c) = std::exp(x(r, c) - max_v);
            sum += out(r, c);
        }
        const float inv = 1.0f / sum;
        for (std::size_t c = 0; c < x.cols(); ++c)
            out(r, c) *= inv;
    }
    return out;
}

Tensor
attention(const Tensor &qkv, std::size_t hidden, std::size_t heads,
          std::size_t seq)
{
    const std::size_t head_dim = hidden / heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    Tensor out(qkv.rows(), hidden);
    for (std::size_t r0 = 0; r0 < qkv.rows(); r0 += seq) {
        for (std::size_t h = 0; h < heads; ++h) {
            Tensor q(seq, head_dim), kt(head_dim, seq), v(seq, head_dim);
            for (std::size_t r = 0; r < seq; ++r) {
                for (std::size_t c = 0; c < head_dim; ++c) {
                    const std::size_t col = h * head_dim + c;
                    q(r, c) = qkv(r0 + r, col);
                    kt(c, r) = qkv(r0 + r, hidden + col);
                    v(r, c) = qkv(r0 + r, 2 * hidden + col);
                }
            }
            Tensor scores = gemmNaive(q, kt);
            for (std::size_t i = 0; i < scores.size(); ++i)
                scores.data()[i] *= scale;
            const Tensor ctx = gemmNaive(softmax(scores), v);
            for (std::size_t r = 0; r < seq; ++r) {
                for (std::size_t c = 0; c < head_dim; ++c)
                    out(r0 + r, h * head_dim + c) = ctx(r, c);
            }
        }
    }
    return out;
}

Tensor
residualLayerNorm(const Tensor &x, const Tensor &y,
                  const std::vector<float> &gamma,
                  const std::vector<float> &beta)
{
    const float epsilon = 1e-5f;
    Tensor out(x.rows(), x.cols());
    std::vector<float> sum_row(x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c)
            sum_row[c] = x(r, c) + y(r, c);
        double sum = 0.0;
        for (std::size_t c = 0; c < x.cols(); ++c)
            sum += sum_row[c];
        const float mu = static_cast<float>(sum / x.cols());
        double var = 0.0;
        for (std::size_t c = 0; c < x.cols(); ++c) {
            const double d = sum_row[c] - mu;
            var += d * d;
        }
        const float inv_sigma =
            1.0f / std::sqrt(static_cast<float>(var / x.cols()) + epsilon);
        for (std::size_t c = 0; c < x.cols(); ++c)
            out(r, c) = (sum_row[c] - mu) * inv_sigma * gamma[c] + beta[c];
    }
    return out;
}

Tensor
gelu(Tensor x)
{
    const float k_c = 0.7978845608028654f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float v = x.data()[i];
        const float inner = k_c * (v + 0.044715f * v * v * v);
        x.data()[i] = 0.5f * v * (1.0f + std::tanh(inner));
    }
    return x;
}

Tensor
forward(const FunctionalTransformer &model, const Tensor &tokens,
        std::size_t seq, bool lut)
{
    const FunctionalTransformerConfig &cfg = model.config();
    Tensor x = tokens;
    for (std::size_t l = 0; l < cfg.layers; ++l) {
        const FunctionalBlockWeights &w = model.blockWeights(l);
        const auto linear = [&](const Tensor &in, const Tensor &weight,
                                const std::vector<float> &bias,
                                LinearRole role) {
            return lut ? lutLinear(model.lutFor(l, role), in)
                       : denseLinear(in, weight, bias);
        };
        const Tensor qkv =
            linear(x, w.wqkv, w.bqkv, LinearRole::QkvProjection);
        const Tensor ctx = attention(qkv, cfg.hidden, cfg.heads, seq);
        const Tensor o = linear(ctx, w.wo, w.bo, LinearRole::OutProjection);
        x = residualLayerNorm(x, o, w.ln1_gamma, w.ln1_beta);
        const Tensor h = gelu(linear(x, w.w1, w.b1, LinearRole::Ffn1));
        const Tensor f = linear(h, w.w2, w.b2, LinearRole::Ffn2);
        x = residualLayerNorm(x, f, w.ln2_gamma, w.ln2_beta);
    }
    return x;
}

} // namespace ref

TEST(FunctionalTransformer, ForwardMatchesSerialReferenceBitExact)
{
    // Head width 18 = a 16-column tile plus a 2-column tail; at seq 128
    // the head GEMMs run row-sharded on the pool and every head's
    // softmax runs row-parallel, at seq 16 both stay on the caller.
    FunctionalTransformerConfig cfg;
    cfg.hidden = 36;
    cfg.ffn = 72;
    cfg.layers = 2;
    cfg.heads = 2;
    cfg.subvec_len = 4;
    cfg.centroids = 16;
    FunctionalTransformer model(cfg);
    model.convertToLut(makeTokens(2 * 128, cfg.hidden, 3), 16);
    for (std::size_t seq : {16u, 128u}) {
        const Tensor tokens = makeTokens(2 * seq, cfg.hidden, 4 + seq);
        for (const bool lut : {false, true}) {
            const Tensor got = model.forward(
                tokens, seq,
                lut ? LinearBackendKind::HostLut : LinearBackendKind::Dense);
            const Tensor want = ref::forward(model, tokens, seq, lut);
            ASSERT_EQ(got.rows(), want.rows());
            ASSERT_EQ(got.cols(), want.cols());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << (lut ? "HostLut" : "Dense") << " seq=" << seq
                << " max diff " << maxAbsDiff(got, want);
        }
    }
}

TEST(FunctionalTransformer, MoreCentroidsTightenEndToEndError)
{
    const std::size_t seq = 8;
    Tensor calib = makeTokens(16 * seq, 16, 5);
    Tensor input = makeTokens(4 * seq, 16, 6);

    float prev = 1e9f;
    for (std::size_t ct : {4u, 16u, 64u}) {
        FunctionalTransformerConfig cfg = smallConfig();
        cfg.centroids = ct;
        FunctionalTransformer model(cfg);
        model.convertToLut(calib, seq);
        const Tensor dense =
            model.forward(input, seq, LinearBackendKind::Dense);
        const Tensor lut =
            model.forward(input, seq, LinearBackendKind::HostLut);
        const float err = relativeError(lut, dense);
        EXPECT_LT(err, prev + 0.05f) << "CT=" << ct;
        prev = err;
    }
    EXPECT_LT(prev, 0.45f);
}

} // namespace
} // namespace pimdl
