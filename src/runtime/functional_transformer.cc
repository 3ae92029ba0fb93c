#include "functional_transformer.h"

#include <cmath>
#include <utility>

#include "common/rng.h"
#include "plan/lowering.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tuner/autotuner.h"
#include "tuner/tune_memo.h"

namespace pimdl {

namespace {

std::size_t
roleIndex(LinearRole role)
{
    switch (role) {
      case LinearRole::QkvProjection:
        return 0;
      case LinearRole::OutProjection:
        return 1;
      case LinearRole::Ffn1:
        return 2;
      case LinearRole::Ffn2:
        return 3;
    }
    return 0;
}

} // namespace

FunctionalTransformer::FunctionalTransformer(
    const FunctionalTransformerConfig &cfg)
    : config_(cfg)
{
    PIMDL_REQUIRE(cfg.hidden % cfg.heads == 0,
                  "hidden must divide into heads");
    PIMDL_REQUIRE(cfg.hidden % cfg.subvec_len == 0 &&
                      cfg.ffn % cfg.subvec_len == 0,
                  "dims must be multiples of the sub-vector length");

    Rng rng(cfg.seed);
    auto init = [&](std::size_t r, std::size_t c) {
        Tensor t(r, c);
        const float stddev =
            std::sqrt(2.0f / static_cast<float>(r + c));
        t.fillGaussian(rng, 0.0f, stddev);
        return t;
    };

    blocks_.resize(cfg.layers);
    for (auto &block : blocks_) {
        block.wqkv = init(cfg.hidden, 3 * cfg.hidden);
        block.wo = init(cfg.hidden, cfg.hidden);
        block.w1 = init(cfg.hidden, cfg.ffn);
        block.w2 = init(cfg.ffn, cfg.hidden);
        block.bqkv.assign(3 * cfg.hidden, 0.0f);
        block.bo.assign(cfg.hidden, 0.0f);
        block.b1.assign(cfg.ffn, 0.0f);
        block.b2.assign(cfg.hidden, 0.0f);
        block.ln1_gamma.assign(cfg.hidden, 1.0f);
        block.ln1_beta.assign(cfg.hidden, 0.0f);
        block.ln2_gamma.assign(cfg.hidden, 1.0f);
        block.ln2_beta.assign(cfg.hidden, 0.0f);
    }
}

Tensor
FunctionalTransformer::attention(const Tensor &q, const Tensor &k,
                                 const Tensor &v,
                                 std::size_t seq_len) const
{
    PIMDL_REQUIRE(q.rows() % seq_len == 0,
                  "token rows must be a multiple of seq_len");
    const std::size_t samples = q.rows() / seq_len;
    const std::size_t head_dim = config_.hidden / config_.heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

    Tensor out(q.rows(), config_.hidden);
    for (std::size_t s = 0; s < samples; ++s) {
        const std::size_t r0 = s * seq_len;
        Tensor qs = q.rowSlice(r0, r0 + seq_len);
        Tensor ks = k.rowSlice(r0, r0 + seq_len);
        Tensor vs = v.rowSlice(r0, r0 + seq_len);
        for (std::size_t h = 0; h < config_.heads; ++h) {
            const std::size_t c0 = h * head_dim;
            Tensor qh = qs.colSlice(c0, c0 + head_dim);
            Tensor kh = ks.colSlice(c0, c0 + head_dim);
            Tensor vh = vs.colSlice(c0, c0 + head_dim);
            Tensor scores = gemm(qh, kh.transposed());
            for (std::size_t i = 0; i < scores.size(); ++i)
                scores.data()[i] *= scale;
            Tensor p = softmaxRows(scores);
            Tensor ctx = gemm(p, vh);
            for (std::size_t r = 0; r < seq_len; ++r) {
                const float *src = ctx.rowPtr(r);
                float *dst = out.rowPtr(r0 + r) + c0;
                for (std::size_t c = 0; c < head_dim; ++c)
                    dst[c] = src[c];
            }
        }
    }
    return out;
}

Tensor
FunctionalTransformer::denseLinear(std::size_t layer, LinearRole role,
                                   const Tensor &x) const
{
    const FunctionalBlockWeights &w = blocks_[layer];
    switch (role) {
      case LinearRole::QkvProjection:
        return gemmBias(x, w.wqkv, w.bqkv);
      case LinearRole::OutProjection:
        return gemmBias(x, w.wo, w.bo);
      case LinearRole::Ffn1:
        return gemmBias(x, w.w1, w.b1);
      case LinearRole::Ffn2:
        return gemmBias(x, w.w2, w.b2);
    }
    return gemmBias(x, w.wqkv, w.bqkv);
}

const FunctionalBlockWeights &
FunctionalTransformer::blockWeights(std::size_t layer) const
{
    PIMDL_REQUIRE(layer < blocks_.size(), "layer out of range");
    return blocks_[layer];
}

const LutLayer &
FunctionalTransformer::lutFor(std::size_t layer, LinearRole role) const
{
    PIMDL_REQUIRE(converted(),
                  "convertToLut must run before LUT backends");
    PIMDL_REQUIRE(layer < luts_.size(), "layer out of range");
    const FunctionalBlockLuts &luts = luts_[layer];
    switch (role) {
      case LinearRole::QkvProjection:
        return luts.qkv;
      case LinearRole::OutProjection:
        return luts.o;
      case LinearRole::Ffn1:
        return luts.ffn1;
      case LinearRole::Ffn2:
        return luts.ffn2;
    }
    return luts.qkv;
}

Tensor
FunctionalTransformer::forward(const Tensor &tokens, std::size_t seq_len,
                               LinearBackendKind backend) const
{
    PIMDL_REQUIRE(tokens.cols() == config_.hidden,
                  "token width must equal hidden dim");
    PIMDL_REQUIRE(tokens.rows() % seq_len == 0,
                  "token rows must be a multiple of seq_len");

    // Lower the encoder to the same device-annotated plan the
    // analytical engine costs; the walk below dispatches each node to
    // a functional kernel. Dense execution is a host-only plan; both
    // LUT backends follow the PIM-DL split.
    TransformerConfig model;
    model.name = "functional";
    model.hidden_dim = config_.hidden;
    model.ffn_dim = config_.ffn;
    model.layers = config_.layers;
    model.heads = config_.heads;
    model.seq_len = seq_len;
    model.batch = tokens.rows() / seq_len;

    const LutNnParams params{config_.subvec_len, config_.centroids};
    const ExecutionMode mode = backend == LinearBackendKind::Dense
                                   ? ExecutionMode::HostOnly
                                   : ExecutionMode::PimDl;
    LoweringOptions options;
    if (pim_planned_)
        options.platform = &platform_;
    const Plan plan = lowerTransformer(model, params, mode, options);

    // Fresh transfer accounting for this forward pass.
    if (backend == LinearBackendKind::PimLut) {
        MutexLock lock(transfer_mu_);
        last_transfer_ = TransferReport{};
        last_pim_model_s_ = 0.0;
        last_pim_engine_s_ = 0.0;
    }

    // Walker state: `x` is the residual stream, `cur` the most recent
    // operator output, `idx` the pending CCS result for the PIM path.
    Tensor x = tokens;
    Tensor cur = tokens;
    IndexMatrix idx;
    for (const PlanNode &node : plan.nodes) {
        switch (node.kind) {
        case PlanOpKind::Gemm:
            cur = denseLinear(node.layer, node.role, cur);
            break;
        case PlanOpKind::Ccs:
            if (backend == LinearBackendKind::PimLut) {
                PIMDL_REQUIRE(
                    pim_planned_,
                    "planPimExecution must run before the PimLut backend");
                idx = lutFor(node.layer, node.role)
                          .closestCentroidSearch(cur);
            }
            // The HostLut backend fuses CCS into forwardQuantized.
            break;
        case PlanOpKind::LutOp: {
            const LutLayer &lut = lutFor(node.layer, node.role);
            if (backend == LinearBackendKind::HostLut) {
                // Host LUT inference uses the same INT8 tables the PIM
                // deploys, so the PimLut backend is bit-comparable.
                cur = lut.forwardQuantized(cur);
            } else {
                // Stable per-table residency key: (layer, role).
                LutTransferContext ctx;
                ctx.scheduler = transfer_scheduler_;
                ctx.resident = resident_luts_;
                ctx.resident_key =
                    (static_cast<std::uint64_t>(node.layer) << 2) |
                    static_cast<std::uint64_t>(roleIndex(node.role));
                const bool engine = transfer_scheduler_ != nullptr ||
                                    resident_luts_ != nullptr;
                DistributedLutResult result = runDistributedLut(
                    platform_, lut, idx,
                    mappings_[node.layer][roleIndex(node.role)],
                    /*quantized=*/true, nullptr, {},
                    engine ? &ctx : nullptr);
                cur = std::move(result.output);
                {
                    MutexLock lock(transfer_mu_);
                    last_transfer_.bursts += result.transfer.bursts;
                    last_transfer_.staged_bytes +=
                        result.transfer.staged_bytes;
                    last_transfer_.transfer_model_s +=
                        result.transfer.transfer_model_s;
                    last_transfer_.hidden_model_s +=
                        result.transfer.hidden_model_s;
                    last_transfer_.saved_stage_s +=
                        result.transfer.saved_stage_s;
                    last_transfer_.resident_hits +=
                        result.transfer.resident_hits;
                    last_transfer_.resident_misses +=
                        result.transfer.resident_misses;
                    last_transfer_.stalls += result.transfer.stalls;
                    last_transfer_.corrupt_retries +=
                        result.transfer.corrupt_retries;
                    last_transfer_.burst_added_s +=
                        result.transfer.burst_added_s;
                    last_pim_model_s_ += result.modelSeconds();
                    last_pim_engine_s_ += result.engineSeconds();
                }
            }
            break;
        }
        case PlanOpKind::Attention: {
            const Tensor q = cur.colSlice(0, config_.hidden);
            const Tensor k =
                cur.colSlice(config_.hidden, 2 * config_.hidden);
            const Tensor v =
                cur.colSlice(2 * config_.hidden, 3 * config_.hidden);
            cur = attention(q, k, v, seq_len);
            break;
        }
        case PlanOpKind::Elementwise: {
            const FunctionalBlockWeights &w = blocks_[node.layer];
            switch (node.ew_kind) {
            case ElementwiseOpKind::Gelu:
                cur = gelu(std::move(cur));
                break;
            case ElementwiseOpKind::ResidualLn1:
                x = layerNormRows(add(x, cur), w.ln1_gamma, w.ln1_beta);
                cur = x;
                break;
            case ElementwiseOpKind::ResidualLn2:
                x = layerNormRows(add(x, cur), w.ln2_gamma, w.ln2_beta);
                cur = x;
                break;
            case ElementwiseOpKind::None:
                break;
            }
            break;
        }
        case PlanOpKind::HostPimTransfer:
            // Payload movement is implicit in the simulated executor.
            break;
        }
    }
    return x;
}

void
FunctionalTransformer::convertToLut(const Tensor &calibration,
                                    std::size_t seq_len,
                                    const KMeansOptions &kmeans)
{
    luts_.clear();
    luts_.resize(config_.layers);

    ConvertOptions options;
    options.subvec_len = config_.subvec_len;
    options.centroids = config_.centroids;
    options.quantize_int8 = true;
    options.kmeans = kmeans;

    // Propagate the calibration tokens densely, converting each layer on
    // the activations that actually feed it.
    Tensor x = calibration;
    for (std::size_t l = 0; l < config_.layers; ++l) {
        const FunctionalBlockWeights &w = blocks_[l];

        luts_[l].qkv = convertLinearLayer(w.wqkv, w.bqkv, x, options);
        const Tensor qkv =
            denseLinear(l, LinearRole::QkvProjection, x);
        const Tensor ctx = attention(
            qkv.colSlice(0, config_.hidden),
            qkv.colSlice(config_.hidden, 2 * config_.hidden),
            qkv.colSlice(2 * config_.hidden, 3 * config_.hidden),
            seq_len);
        luts_[l].o = convertLinearLayer(w.wo, w.bo, ctx, options);
        const Tensor attn_out =
            denseLinear(l, LinearRole::OutProjection, ctx);
        x = layerNormRows(add(x, attn_out), w.ln1_gamma, w.ln1_beta);

        luts_[l].ffn1 = convertLinearLayer(w.w1, w.b1, x, options);
        const Tensor h = gelu(denseLinear(l, LinearRole::Ffn1, x));
        luts_[l].ffn2 = convertLinearLayer(w.w2, w.b2, h, options);
        const Tensor ffn_out = denseLinear(l, LinearRole::Ffn2, h);
        x = layerNormRows(add(x, ffn_out), w.ln2_gamma, w.ln2_beta);
    }
}

void
FunctionalTransformer::planPimExecution(const PimPlatformConfig &platform,
                                        std::size_t rows)
{
    PIMDL_REQUIRE(converted(), "convertToLut must run first");
    platform_ = platform;
    mappings_.clear();
    mappings_.resize(config_.layers);

    // Every block shares the same four workload shapes, so the memoized
    // tuner searches each distinct shape once regardless of depth —
    // the same TuneMemo component the analytical engine plans with.
    const AutoTuner tuner(platform);
    const TuneMemo memo(tuner);
    for (std::size_t l = 0; l < config_.layers; ++l) {
        const std::array<const LutLayer *, 4> layers{
            &luts_[l].qkv, &luts_[l].o, &luts_[l].ffn1, &luts_[l].ffn2};
        for (std::size_t i = 0; i < layers.size(); ++i) {
            LutWorkloadShape shape = lutShapeFor(*layers[i], rows);
            shape.output_dtype_bytes = platform.lut_dtype_bytes;
            const AutoTuneResult &tuned = memo.tune(shape);
            PIMDL_REQUIRE(tuned.found,
                          "no legal mapping for functional PIM run");
            mappings_[l][i] = tuned.mapping;
        }
    }
    pim_planned_ = true;
}

void
FunctionalTransformer::enableTransferEngine(
    transfer::TransferScheduler *scheduler,
    transfer::ResidentLutManager *resident)
{
    transfer_scheduler_ = scheduler;
    resident_luts_ = resident;
}

TransferReport
FunctionalTransformer::lastTransferReport() const
{
    MutexLock lock(transfer_mu_);
    return last_transfer_;
}

double
FunctionalTransformer::lastPimModelSeconds() const
{
    MutexLock lock(transfer_mu_);
    return last_pim_model_s_;
}

double
FunctionalTransformer::lastPimEngineSeconds() const
{
    MutexLock lock(transfer_mu_);
    return last_pim_engine_s_;
}

} // namespace pimdl
