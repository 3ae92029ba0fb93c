#include "replay.h"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "backend/backend.h"
#include "common/rng.h"
#include "host/host_model.h"
#include "host_probe.h"
#include "lutnn/converter.h"
#include "obs/trace.h"
#include "plan/lowering.h"
#include "runtime/engine.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tuner/autotuner.h"
#include "workload.h"

namespace perfbench {

using namespace pimdl;

namespace {

constexpr std::array<LinearRole, 4> kRoles{
    LinearRole::QkvProjection, LinearRole::OutProjection,
    LinearRole::Ffn1, LinearRole::Ffn2};

std::size_t
roleIndex(LinearRole role)
{
    for (std::size_t i = 0; i < kRoles.size(); ++i)
        if (kRoles[i] == role)
            return i;
    throw std::logic_error("unknown linear role");
}

/** Runs @p fn under a span named @p name; returns its wall ms. */
template <typename Fn>
double
timedMs(const char *name, Fn &&fn)
{
    obs::TraceSpan span(name);
    const double t0 = wallSeconds();
    fn();
    return (wallSeconds() - t0) * 1e3;
}

/** Multi-head attention through the public tensor ops, mirroring the
 * per-sample, per-head loop forward() runs. */
Tensor
attention(const Tensor &qkv, std::size_t hidden, std::size_t heads,
          std::size_t seq_len)
{
    const Tensor q = qkv.colSlice(0, hidden);
    const Tensor k = qkv.colSlice(hidden, 2 * hidden);
    const Tensor v = qkv.colSlice(2 * hidden, 3 * hidden);
    const std::size_t head_dim = hidden / heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    Tensor out(q.rows(), hidden);
    for (std::size_t r0 = 0; r0 < q.rows(); r0 += seq_len) {
        const Tensor qs = q.rowSlice(r0, r0 + seq_len);
        const Tensor ks = k.rowSlice(r0, r0 + seq_len);
        const Tensor vs = v.rowSlice(r0, r0 + seq_len);
        for (std::size_t h = 0; h < heads; ++h) {
            const std::size_t c0 = h * head_dim;
            Tensor scores = gemm(qs.colSlice(c0, c0 + head_dim),
                                 ks.colSlice(c0, c0 + head_dim)
                                     .transposed());
            for (std::size_t i = 0; i < scores.size(); ++i)
                scores.data()[i] *= scale;
            const Tensor ctx = gemm(softmaxRows(scores),
                                    vs.colSlice(c0, c0 + head_dim));
            for (std::size_t r = 0; r < seq_len; ++r)
                for (std::size_t c = 0; c < head_dim; ++c)
                    out.rowPtr(r0 + r)[c0 + c] = ctx.rowPtr(r)[c];
        }
    }
    return out;
}

/** One Elementwise node, as forward() runs it: `x` is the residual
 * stream, `cur` the latest operator output. */
void
elementwise(const ReplayModel &model, const PlanNode &node, Tensor &x,
            Tensor &cur)
{
    switch (node.ew_kind) {
    case ElementwiseOpKind::Gelu:
        cur = gelu(cur);
        break;
    case ElementwiseOpKind::ResidualLn1:
    case ElementwiseOpKind::ResidualLn2:
        x = layerNormRows(add(x, cur), model.ln_gamma, model.ln_beta);
        cur = x;
        break;
    case ElementwiseOpKind::None:
        break;
    }
}

} // namespace

ReplayModel
buildReplayModel(const FunctionalTransformerConfig &config,
                 const Tensor &calibration, std::size_t seq_len,
                 const PimPlatformConfig *platform, std::size_t rows,
                 double &convert_ms)
{
    ReplayModel model;
    model.config = config;
    model.ln_gamma.assign(config.hidden, 1.0f);
    model.ln_beta.assign(config.hidden, 0.0f);
    model.luts.resize(config.layers);

    ConvertOptions options;
    options.subvec_len = config.subvec_len;
    options.centroids = config.centroids;
    options.quantize_int8 = true;

    // Weights in the constructor's draw order: per block wqkv, wo, w1, w2.
    Rng rng(config.seed);
    auto init = [&rng](std::size_t r, std::size_t c) {
        Tensor t(r, c);
        t.fillGaussian(rng, 0.0f,
                       std::sqrt(2.0f / static_cast<float>(r + c)));
        return t;
    };
    const std::size_t h = config.hidden;
    std::vector<std::array<Tensor, 4>> weights(config.layers);
    for (auto &w : weights)
        w = {init(h, 3 * h), init(h, h), init(h, config.ffn),
             init(config.ffn, h)};

    // Convert each linear on the activations that feed it, propagating
    // the calibration densely as convertToLut does.
    Tensor x = calibration;
    for (std::size_t l = 0; l < config.layers; ++l) {
        auto convert = [&](std::size_t role, const Tensor &input) {
            const Tensor &w = weights[l][role];
            const std::vector<float> bias(w.cols(), 0.0f);
            convert_ms += timedMs("lutnn.convert", [&] {
                model.luts[l][role] =
                    convertLinearLayer(w, bias, input, options);
            });
            return gemmBias(input, w, bias);
        };
        const Tensor ctx =
            attention(convert(0, x), h, config.heads, seq_len);
        x = layerNormRows(add(x, convert(1, ctx)), model.ln_gamma,
                          model.ln_beta);
        const Tensor hidden = gelu(convert(2, x));
        x = layerNormRows(add(x, convert(3, hidden)), model.ln_gamma,
                          model.ln_beta);
    }

    if (platform != nullptr) {
        model.platform = *platform;
        model.pim_planned = true;
        model.mappings.resize(config.layers);
        const AutoTuner tuner(*platform);
        for (std::size_t l = 0; l < config.layers; ++l) {
            for (std::size_t i = 0; i < kRoles.size(); ++i) {
                LutWorkloadShape shape = lutShapeFor(model.luts[l][i], rows);
                shape.output_dtype_bytes = platform->lut_dtype_bytes;
                const AutoTuneResult tuned = tuner.tune(shape);
                if (!tuned.found)
                    throw std::runtime_error("replay: no legal mapping");
                model.mappings[l][i] = tuned.mapping;
            }
        }
    }
    return model;
}

Plan
lowerLikeForward(const ReplayModel &model, std::size_t rows,
                 std::size_t seq_len, LinearBackendKind backend)
{
    if (backend == LinearBackendKind::Dense)
        throw std::invalid_argument("replay covers the LUT backends only");
    TransformerConfig shape;
    shape.name = "functional";
    shape.hidden_dim = model.config.hidden;
    shape.ffn_dim = model.config.ffn;
    shape.layers = model.config.layers;
    shape.heads = model.config.heads;
    shape.seq_len = seq_len;
    shape.batch = rows / seq_len;
    LoweringOptions options;
    if (model.pim_planned)
        options.platform = &model.platform;
    return lowerTransformer(
        shape, LutNnParams{model.config.subvec_len, model.config.centroids},
        ExecutionMode::PimDl, options);
}

LayerTimes
replayForward(const ReplayModel &model, const Tensor &tokens,
              std::size_t seq_len, LinearBackendKind backend,
              const ReplayTransfer &transfer)
{
    if (backend == LinearBackendKind::PimLut && !model.pim_planned)
        throw std::invalid_argument("PimLut replay needs a planned model");
    LayerTimes t;
    Plan plan;
    t.lower_ms = timedMs("plan.lower", [&] {
        plan = lowerLikeForward(model, tokens.rows(), seq_len, backend);
    });

    const std::size_t hidden = model.config.hidden;
    Tensor x = tokens;
    Tensor cur = tokens;
    IndexMatrix idx;
    for (const PlanNode &node : plan.nodes) {
        t.visited.insert(node.kind);
        switch (node.kind) {
        case PlanOpKind::Ccs:
            // HostLut fuses CCS into forwardQuantized, as forward() does.
            if (backend == LinearBackendKind::PimLut)
                t.ccs_ms += timedMs("lutnn.ccs", [&] {
                    idx = model.luts[node.layer][roleIndex(node.role)]
                              .closestCentroidSearch(cur);
                });
            break;
        case PlanOpKind::LutOp: {
            const std::size_t role = roleIndex(node.role);
            const LutLayer &lut = model.luts[node.layer][role];
            if (backend == LinearBackendKind::HostLut) {
                t.fused_ccs_ms += timedMs("lutnn.ccs(fused, probe)", [&] {
                    (void)lut.closestCentroidSearch(cur);
                });
                t.host_lut_ms += timedMs("lutnn.host_lut", [&] {
                    cur = lut.forwardQuantized(cur);
                });
                break;
            }
            LutTransferContext ctx;
            ctx.scheduler = transfer.scheduler;
            ctx.resident = transfer.resident;
            ctx.resident_key =
                (static_cast<std::uint64_t>(node.layer) << 2) | role;
            const bool engine =
                transfer.scheduler != nullptr || transfer.resident != nullptr;
            DistributedLutResult result;
            const double cpu0 = processCpuSeconds();
            {
                obs::TraceSpan span("runtime.lut_executor");
                const double t0 = wallSeconds();
                result = runDistributedLut(
                    model.platform, lut, idx, model.mappings[node.layer][role],
                    /*quantized=*/true, nullptr, {}, engine ? &ctx : nullptr);
                t.lut_exec_ms += (wallSeconds() - t0) * 1e3;
            }
            t.lut_exec_cpu_ms += (processCpuSeconds() - cpu0) * 1e3;
            t.lut_modeled_ms += result.engineSeconds() * 1e3;
            recordSimSpan(std::string("pim.lut.") + linearRoleName(node.role),
                          result.engineSeconds());
            cur = std::move(result.output);
            TransferReport &sum = t.transfer;
            sum.bursts += result.transfer.bursts;
            sum.staged_bytes += result.transfer.staged_bytes;
            sum.transfer_model_s += result.transfer.transfer_model_s;
            sum.hidden_model_s += result.transfer.hidden_model_s;
            sum.saved_stage_s += result.transfer.saved_stage_s;
            sum.resident_hits += result.transfer.resident_hits;
            sum.resident_misses += result.transfer.resident_misses;
            break;
        }
        case PlanOpKind::Attention:
            t.attention_ms += timedMs("tensor.attention", [&] {
                cur = attention(cur, hidden, model.config.heads, seq_len);
            });
            break;
        case PlanOpKind::Elementwise:
            t.elementwise_ms +=
                timedMs("tensor.elementwise",
                        [&] { elementwise(model, node, x, cur); });
            break;
        case PlanOpKind::HostPimTransfer:
            // Movement happens inside runDistributedLut; the node is
            // visited so coverage counts it, and costs nothing here.
            break;
        case PlanOpKind::Gemm:
            throw std::logic_error("replay: Gemm node in a LUT plan");
        }
    }
    t.output = std::move(x);
    return t;
}

PricingTimes
replayPricing(const TransformerConfig &model,
              const PimPlatformConfig &platform)
{
    const LutNnParams params{4, 16};
    PricingTimes t;
    Plan plan;
    t.lower_ms = timedMs("plan.lower", [&] {
        LoweringOptions options;
        options.platform = &platform;
        plan = lowerTransformer(model, params, ExecutionMode::PimDl, options);
    });

    // Cold tune of each distinct LUT shape, attached as
    // attachTunedMappings would.
    const AutoTuner tuner(platform);
    std::map<LutWorkloadShape, LutMapping> tuned;
    for (PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::LutOp)
            continue;
        auto it = tuned.find(node.lut_shape);
        if (it == tuned.end()) {
            AutoTuneResult result;
            t.tune_ms += timedMs("tuner.tune",
                                 [&] { result = tuner.tune(node.lut_shape); });
            if (!result.found)
                throw std::runtime_error("pricing: no legal mapping for " +
                                         model.name + " on " + platform.name);
            t.evaluated += result.evaluated;
            it = tuned.emplace(node.lut_shape, result.mapping).first;
        }
        node.mapping = it->second;
        node.mapping_attached = true;
    }
    plan.validate();

    const HostProcessorConfig host = xeon4210Dual();
    for (const TimingBackendKind kind :
         {TimingBackendKind::Analytical, TimingBackendKind::Transaction}) {
        const auto backend = makeTimingBackend(kind, platform, host);
        const bool analytical = kind == TimingBackendKind::Analytical;
        const double ms = timedMs(analytical ? "backend.analytical.cost"
                                             : "backend.transaction.cost",
                                  [&] { (void)backend->cost(plan); });
        (analytical ? t.analytical_cost_ms : t.transaction_cost_ms) = ms;
    }

    const PimDlEngine engine(platform, host, TimingBackendKind::Analytical);
    (void)engine.estimatePimDl(model, params); // fills the tune memo
    t.estimate_warm_ms =
        timedMs("runtime.engine.estimate_warm",
                [&] { (void)engine.estimatePimDl(model, params); });
    return t;
}

} // namespace perfbench
