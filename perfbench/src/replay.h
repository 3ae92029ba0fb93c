/**
 * @file
 * Outside-in layer replay for the traced run.
 *
 * The functional replay lowers the same plan FunctionalTransformer::
 * forward() lowers and walks its nodes itself, calling each layer's
 * public entry point (closestCentroidSearch, runDistributedLut,
 * forwardQuantized, gemm/softmaxRows, add/layerNormRows/gelu) on the
 * shapes forward() would use, timing each call. Its LUT tables are
 * converted by the replay itself, from weights drawn by the documented
 * recipe of the FunctionalTransformer constructor (seeded Gaussians of
 * stddev sqrt(2 / (rows + cols)), zero biases, unit LayerNorm) and
 * calibration propagated densely as convertToLut does, so the replayed
 * CCS indices, and with them the LUT access pattern, follow the real
 * model's.
 *
 * The pricing replay takes the steps PimDlEngine::estimatePimDl takes
 * (lower, tune, cost) one public call at a time, under both timing
 * backends, plus a memo-hit estimate on a warmed engine.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "nn/model_config.h"
#include "pim/platform.h"
#include "plan/plan.h"
#include "runtime/functional_transformer.h"
#include "runtime/lut_executor.h"

namespace perfbench {

/** LUT layers (and, when planned, PIM mappings) shaped like one
 * FunctionalTransformer, indexed [layer][role]. */
struct ReplayModel
{
    pimdl::FunctionalTransformerConfig config;
    std::vector<std::array<pimdl::LutLayer, 4>> luts;
    std::vector<std::array<pimdl::LutMapping, 4>> mappings;
    std::vector<float> ln_gamma;
    std::vector<float> ln_beta;
    pimdl::PimPlatformConfig platform;
    bool pim_planned = false;
};

/**
 * Builds replay LUT layers for @p config (weights drawn from
 * config.seed), converting each linear on @p calibration propagated
 * through the dense layers in groups of @p seq_len rows, and adds the
 * wall ms of the convertLinearLayer calls to @p convert_ms. When
 * @p platform is non-null, also tunes a mapping per LUT shape for
 * @p rows token rows, as planPimExecution does.
 */
ReplayModel buildReplayModel(const pimdl::FunctionalTransformerConfig &config,
                             const pimdl::Tensor &calibration,
                             std::size_t seq_len,
                             const pimdl::PimPlatformConfig *platform,
                             std::size_t rows, double &convert_ms);

/** Transfer engine the replayed LUT ops run through (both optional),
 * with forward()'s default of four index waves. */
struct ReplayTransfer
{
    pimdl::transfer::TransferScheduler *scheduler = nullptr;
    pimdl::transfer::ResidentLutManager *resident = nullptr;
};

/** Per-layer cost of one replayed forward. Host ms unless noted. */
struct LayerTimes
{
    double lower_ms = 0.0;
    double ccs_ms = 0.0;
    /** forwardQuantized (HostLut LutOp nodes, CCS fused in). */
    double host_lut_ms = 0.0;
    /** HostLut only: the CCS share of forwardQuantized, timed by a
     * separate closestCentroidSearch on the same input (not part of
     * sumMs(), since forward() does not run it twice). */
    double fused_ccs_ms = 0.0;
    /** runDistributedLut wall and process-CPU time (PimLut). */
    double lut_exec_ms = 0.0;
    double lut_exec_cpu_ms = 0.0;
    double attention_ms = 0.0;
    double elementwise_ms = 0.0;
    /** Sim clock: engine-priced seconds of the LUT ops, in ms. */
    double lut_modeled_ms = 0.0;
    /** Transfer-engine outcome summed over the LUT ops. */
    pimdl::TransferReport transfer;
    /** Every op kind the walk dispatched. */
    std::set<pimdl::PlanOpKind> visited;
    /** The replayed encoder output. */
    pimdl::Tensor output;

    /** Host time of everything forward() does: lowering plus nodes
     * (HostPimTransfer nodes move nothing outside the executor). */
    double
    sumMs() const
    {
        return lower_ms + ccs_ms + host_lut_ms + lut_exec_ms +
               attention_ms + elementwise_ms;
    }
};

/** The plan forward() walks for @p rows of @p seq_len under @p backend. */
pimdl::Plan lowerLikeForward(const ReplayModel &model, std::size_t rows,
                             std::size_t seq_len,
                             pimdl::LinearBackendKind backend);

/**
 * Replays one forward of @p tokens through the layer entry points.
 * LUT backends only (the Dense path has no LUT layers to replay).
 */
LayerTimes replayForward(const ReplayModel &model,
                         const pimdl::Tensor &tokens, std::size_t seq_len,
                         pimdl::LinearBackendKind backend,
                         const ReplayTransfer &transfer);

/** Per-call cost of pricing one model on one platform. */
struct PricingTimes
{
    double lower_ms = 0.0;
    double tune_ms = 0.0;
    std::size_t evaluated = 0;
    double analytical_cost_ms = 0.0;
    double transaction_cost_ms = 0.0;
    /** estimatePimDl on an engine whose tune memo is already warm. */
    double estimate_warm_ms = 0.0;
};

PricingTimes replayPricing(const pimdl::TransformerConfig &model,
                           const pimdl::PimPlatformConfig &platform);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
