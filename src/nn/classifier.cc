#include "classifier.h"

#include <algorithm>
#include <cmath>

namespace pimdl {

using ag::Variable;

namespace {

/** Temperature for SoftLut assignment. */
constexpr float kSoftTemperature = 1.0f;

/** Argmax over the single row of a 1 x C logits tensor. */
std::size_t
argmaxRowsScalar(const Tensor &logits)
{
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
        if (logits(0, c) > logits(0, best))
            best = c;
    }
    return best;
}

} // namespace

Tensor
SequenceDataset::sequence(std::size_t i) const
{
    PIMDL_REQUIRE(i < size(), "sequence index out of range");
    return features.rowSlice(i * seq_len, (i + 1) * seq_len);
}

TransformerClassifier::TransformerClassifier(const ClassifierConfig &config)
    : config_(config)
{
    PIMDL_REQUIRE(config_.hidden % config_.subvec_len == 0,
                  "hidden dim must be divisible by V");
    PIMDL_REQUIRE(config_.ffn % config_.subvec_len == 0,
                  "ffn dim must be divisible by V");
    PIMDL_REQUIRE(config_.heads > 0 &&
                      config_.hidden % config_.heads == 0,
                  "hidden dim must be divisible by the head count");

    Rng rng(config_.seed);
    input_proj_ = makeLinear(config_.input_dim, config_.hidden, rng);
    head_ = makeLinear(config_.hidden, config_.classes, rng);

    blocks_.reserve(config_.layers);
    for (std::size_t l = 0; l < config_.layers; ++l) {
        EncoderBlock block;
        block.wq = makeLinear(config_.hidden, config_.hidden, rng);
        block.wk = makeLinear(config_.hidden, config_.hidden, rng);
        block.wv = makeLinear(config_.hidden, config_.hidden, rng);
        block.wo = makeLinear(config_.hidden, config_.hidden, rng);
        block.ffn1 = makeLinear(config_.hidden, config_.ffn, rng);
        block.ffn2 = makeLinear(config_.ffn, config_.hidden, rng);

        Tensor ones(1, config_.hidden);
        ones.fill(1.0f);
        block.ln1_gamma = Variable::leaf(ones, true);
        block.ln2_gamma = Variable::leaf(ones, true);
        block.ln1_beta = Variable::leaf(Tensor(1, config_.hidden), true);
        block.ln2_beta = Variable::leaf(Tensor(1, config_.hidden), true);
        blocks_.push_back(std::move(block));
    }
}

ReplaceableLinear
TransformerClassifier::makeLinear(std::size_t in_dim, std::size_t out_dim,
                                  Rng &rng)
{
    ReplaceableLinear layer;
    layer.in_dim = in_dim;
    layer.out_dim = out_dim;
    Tensor w(in_dim, out_dim);
    // Xavier initialization keeps pre-activation variance stable.
    const float stddev = std::sqrt(
        2.0f / static_cast<float>(in_dim + out_dim));
    w.fillGaussian(rng, 0.0f, stddev);
    layer.weight = Variable::leaf(std::move(w), true);
    layer.bias = Variable::leaf(Tensor(1, out_dim), true);
    return layer;
}

TransformerClassifier
TransformerClassifier::cloneWeights() const
{
    TransformerClassifier copy(config_);
    // modelParams() enumerates both models' parameters in the same
    // deterministic order; copy values across.
    auto &self = const_cast<TransformerClassifier &>(*this);
    auto src = self.modelParams();
    auto dst = copy.modelParams();
    PIMDL_ASSERT(src.size() == dst.size(), "clone parameter mismatch");
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i].mutableValue() = src[i].value();
    return copy;
}

std::vector<ReplaceableLinear *>
TransformerClassifier::replaceableLayers()
{
    std::vector<ReplaceableLinear *> layers;
    for (auto &block : blocks_) {
        layers.push_back(&block.wq);
        layers.push_back(&block.wk);
        layers.push_back(&block.wv);
        layers.push_back(&block.wo);
        layers.push_back(&block.ffn1);
        layers.push_back(&block.ffn2);
    }
    return layers;
}

Variable
TransformerClassifier::applyLinear(ReplaceableLinear &layer, Variable x,
                                   LinearMode mode,
                                   std::vector<Variable> *recon_terms)
{
    if (mode == LinearMode::Dense || !layer.centroids.valid()) {
        return ag::addRowBroadcast(ag::matmul(x, layer.weight), layer.bias);
    }

    const std::size_t v = config_.subvec_len;
    const std::size_t ct = config_.centroids;
    const std::size_t cb = layer.in_dim / v;

    Variable xa;
    if (mode == LinearMode::HardLut) {
        xa = ag::centroidAssign(x, layer.centroids, cb, ct, v);
    } else {
        xa = ag::softAssign(x, layer.centroids, cb, ct, v,
                            kSoftTemperature);
    }

    Variable approx = ag::matmul(xa, layer.weight);
    if (recon_terms) {
        Variable exact = ag::matmul(x, layer.weight);
        recon_terms->push_back(ag::sumSquaredDiff(approx, exact));
    }
    return ag::addRowBroadcast(approx, layer.bias);
}

Variable
TransformerClassifier::forwardSequence(const Tensor &seq, LinearMode mode,
                                       std::vector<Variable> *recon_terms)
{
    Variable x = Variable::leaf(seq, false);
    x = ag::addRowBroadcast(ag::matmul(x, input_proj_.weight),
                            input_proj_.bias);

    const std::size_t head_dim = config_.hidden / config_.heads;
    const float attn_scale =
        1.0f / std::sqrt(static_cast<float>(head_dim));

    for (auto &block : blocks_) {
        // Post-LN multi-head self-attention.
        Variable q = applyLinear(block.wq, x, mode, recon_terms);
        Variable k = applyLinear(block.wk, x, mode, recon_terms);
        Variable v = applyLinear(block.wv, x, mode, recon_terms);
        Variable ctx;
        if (config_.heads == 1) {
            Variable scores =
                ag::mulScalar(ag::matmul(q, ag::transpose(k)), attn_scale);
            ctx = ag::matmul(ag::rowSoftmax(scores), v);
        } else {
            std::vector<Variable> head_ctx;
            head_ctx.reserve(config_.heads);
            for (std::size_t h = 0; h < config_.heads; ++h) {
                const std::size_t begin = h * head_dim;
                const std::size_t end = begin + head_dim;
                Variable qh = ag::colSlice(q, begin, end);
                Variable kh = ag::colSlice(k, begin, end);
                Variable vh = ag::colSlice(v, begin, end);
                Variable scores = ag::mulScalar(
                    ag::matmul(qh, ag::transpose(kh)), attn_scale);
                head_ctx.push_back(
                    ag::matmul(ag::rowSoftmax(scores), vh));
            }
            ctx = ag::concatCols(head_ctx);
        }
        Variable attn_out = applyLinear(block.wo, ctx, mode, recon_terms);
        x = ag::layerNorm(ag::add(x, attn_out), block.ln1_gamma,
                          block.ln1_beta);

        // Feed-forward with GELU.
        Variable h = ag::gelu(applyLinear(block.ffn1, x, mode, recon_terms));
        Variable ffn_out = applyLinear(block.ffn2, h, mode, recon_terms);
        x = ag::layerNorm(ag::add(x, ffn_out), block.ln2_gamma,
                          block.ln2_beta);
    }

    Variable pooled = ag::meanRows(x);
    return ag::addRowBroadcast(ag::matmul(pooled, head_.weight), head_.bias);
}

ForwardResult
TransformerClassifier::forwardBatch(const SequenceDataset &data,
                                    std::size_t begin, std::size_t end,
                                    LinearMode mode, float recon_beta)
{
    PIMDL_REQUIRE(begin < end && end <= data.size(),
                  "bad batch range in forwardBatch");
    PIMDL_REQUIRE(data.seq_len == config_.seq_len,
                  "dataset sequence length mismatch");

    std::vector<Variable> recon_terms;
    std::vector<Variable> *recon_ptr =
        (recon_beta > 0.0f && mode != LinearMode::Dense) ? &recon_terms
                                                         : nullptr;

    Variable total_loss;
    std::size_t correct = 0;
    for (std::size_t i = begin; i < end; ++i) {
        Variable logits =
            forwardSequence(data.sequence(i), mode, recon_ptr);
        if (argmaxRowsScalar(logits.value()) == data.labels[i])
            ++correct;
        Variable loss = ag::softmaxCrossEntropy(logits, {data.labels[i]});
        total_loss = total_loss.valid() ? ag::add(total_loss, loss) : loss;
    }

    const float inv_batch = 1.0f / static_cast<float>(end - begin);
    Variable loss = ag::mulScalar(total_loss, inv_batch);
    if (recon_ptr && !recon_terms.empty()) {
        Variable recon = recon_terms[0];
        for (std::size_t i = 1; i < recon_terms.size(); ++i)
            recon = ag::add(recon, recon_terms[i]);
        loss = ag::add(loss, ag::mulScalar(recon, recon_beta * inv_batch));
    }

    ForwardResult result;
    result.loss = loss;
    result.accuracy = static_cast<float>(correct) /
                      static_cast<float>(end - begin);
    return result;
}

float
TransformerClassifier::evaluate(const SequenceDataset &data, LinearMode mode)
{
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        Variable logits = forwardSequence(data.sequence(i), mode, nullptr);
        if (argmaxRowsScalar(logits.value()) == data.labels[i])
            ++correct;
    }
    return static_cast<float>(correct) / static_cast<float>(data.size());
}

std::vector<Variable>
TransformerClassifier::modelParams()
{
    std::vector<Variable> params{input_proj_.weight, input_proj_.bias,
                                 head_.weight, head_.bias};
    for (auto &block : blocks_) {
        for (ReplaceableLinear *layer :
             {&block.wq, &block.wk, &block.wv, &block.wo, &block.ffn1,
              &block.ffn2}) {
            params.push_back(layer->weight);
            params.push_back(layer->bias);
        }
        params.push_back(block.ln1_gamma);
        params.push_back(block.ln1_beta);
        params.push_back(block.ln2_gamma);
        params.push_back(block.ln2_beta);
    }
    return params;
}

std::vector<Variable>
TransformerClassifier::centroidParams()
{
    std::vector<Variable> params;
    for (ReplaceableLinear *layer : replaceableLayers()) {
        if (layer->centroids.valid())
            params.push_back(layer->centroids);
    }
    return params;
}

std::vector<Tensor>
TransformerClassifier::collectActivations(const SequenceDataset &data,
                                          std::size_t max_samples)
{
    const std::size_t samples = std::min(max_samples, data.size());
    auto layers = replaceableLayers();
    std::vector<Tensor> activations;
    activations.reserve(layers.size());
    for (ReplaceableLinear *layer : layers) {
        activations.emplace_back(samples * config_.seq_len, layer->in_dim);
    }

    // Re-run the dense forward math, recording each layer's input rows.
    const std::size_t head_dim = config_.hidden / config_.heads;
    const float attn_scale =
        1.0f / std::sqrt(static_cast<float>(head_dim));
    for (std::size_t s = 0; s < samples; ++s) {
        Variable x = Variable::leaf(data.sequence(s), false);
        x = ag::addRowBroadcast(ag::matmul(x, input_proj_.weight),
                                input_proj_.bias);
        std::size_t layer_idx = 0;
        auto record = [&](const Tensor &value) {
            Tensor &dst = activations[layer_idx++];
            for (std::size_t r = 0; r < value.rows(); ++r) {
                const float *src = value.rowPtr(r);
                float *d = dst.rowPtr(s * config_.seq_len + r);
                for (std::size_t c = 0; c < value.cols(); ++c)
                    d[c] = src[c];
            }
        };
        for (auto &block : blocks_) {
            record(x.value()); // wq input
            record(x.value()); // wk input
            record(x.value()); // wv input
            Variable q = applyLinear(block.wq, x, LinearMode::Dense, nullptr);
            Variable k = applyLinear(block.wk, x, LinearMode::Dense, nullptr);
            Variable v = applyLinear(block.wv, x, LinearMode::Dense, nullptr);
            Variable ctx;
            if (config_.heads == 1) {
                Variable scores = ag::mulScalar(
                    ag::matmul(q, ag::transpose(k)), attn_scale);
                ctx = ag::matmul(ag::rowSoftmax(scores), v);
            } else {
                std::vector<Variable> head_ctx;
                for (std::size_t h = 0; h < config_.heads; ++h) {
                    const std::size_t begin = h * head_dim;
                    const std::size_t end = begin + head_dim;
                    Variable scores = ag::mulScalar(
                        ag::matmul(ag::colSlice(q, begin, end),
                                   ag::transpose(
                                       ag::colSlice(k, begin, end))),
                        attn_scale);
                    head_ctx.push_back(
                        ag::matmul(ag::rowSoftmax(scores),
                                   ag::colSlice(v, begin, end)));
                }
                ctx = ag::concatCols(head_ctx);
            }
            record(ctx.value()); // wo input
            Variable attn_out =
                applyLinear(block.wo, ctx, LinearMode::Dense, nullptr);
            x = ag::layerNorm(ag::add(x, attn_out), block.ln1_gamma,
                              block.ln1_beta);
            record(x.value()); // ffn1 input
            Variable h = ag::gelu(
                applyLinear(block.ffn1, x, LinearMode::Dense, nullptr));
            record(h.value()); // ffn2 input
            Variable ffn_out =
                applyLinear(block.ffn2, h, LinearMode::Dense, nullptr);
            x = ag::layerNorm(ag::add(x, ffn_out), block.ln2_gamma,
                              block.ln2_beta);
        }
    }
    return activations;
}

void
TransformerClassifier::setCodebooks(std::vector<Tensor> leaves)
{
    auto layers = replaceableLayers();
    PIMDL_REQUIRE(leaves.size() == layers.size(),
                  "one centroid leaf per replaceable layer required");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        ReplaceableLinear *layer = layers[i];
        const std::size_t cb = layer->in_dim / config_.subvec_len;
        PIMDL_REQUIRE(leaves[i].rows() == cb * config_.centroids &&
                          leaves[i].cols() == config_.subvec_len,
                      "centroid leaf shape mismatch");
        layer->centroids = Variable::leaf(std::move(leaves[i]), true);
    }
}

} // namespace pimdl
