/**
 * @file
 * Tests that the outside-in replay follows FunctionalTransformer::
 * forward(): it dispatches every op kind of the plan forward() walks,
 * and its LUT ops price to the same modeled seconds.
 */

#include <gtest/gtest.h>

#include <set>

#include "plan/lowering.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pimdl;

constexpr std::size_t kSeq = 8;
constexpr std::size_t kRows = 2 * kSeq;

FunctionalTransformerConfig
smallConfig()
{
    FunctionalTransformerConfig cfg;
    cfg.hidden = 32;
    cfg.ffn = 64;
    cfg.layers = 2;
    cfg.heads = 2;
    return cfg;
}

/** The op kinds of the plan forward() lowers, built the way forward()
 * builds it rather than through the replay's helper. */
std::set<PlanOpKind>
forwardKinds(const FunctionalTransformerConfig &cfg,
             const PimPlatformConfig *platform)
{
    TransformerConfig model;
    model.hidden_dim = cfg.hidden;
    model.ffn_dim = cfg.ffn;
    model.layers = cfg.layers;
    model.heads = cfg.heads;
    model.seq_len = kSeq;
    model.batch = kRows / kSeq;
    LoweringOptions options;
    options.platform = platform;
    const Plan plan =
        lowerTransformer(model, LutNnParams{cfg.subvec_len, cfg.centroids},
                         ExecutionMode::PimDl, options);
    std::set<PlanOpKind> kinds;
    for (const PlanNode &node : plan.nodes)
        kinds.insert(node.kind);
    return kinds;
}

TEST(PerfbenchReplay, VisitsEveryOpKindForwardDoes)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(true);
    double convert_ms = 0.0;
    const PimPlatformConfig upmem = upmemPlatform();
    const ReplayModel model =
        buildReplayModel(smallConfig(), seededTensor(64, 32, 3), kSeq,
                         &upmem, kRows, convert_ms);
    EXPECT_GT(convert_ms, 0.0);
    const Tensor tokens = seededTensor(kRows, 32, 6);

    const LayerTimes pim = replayForward(
        model, tokens, kSeq, LinearBackendKind::PimLut, {});
    EXPECT_EQ(pim.visited, forwardKinds(smallConfig(), &upmem));
    EXPECT_GT(pim.ccs_ms, 0.0);
    EXPECT_GT(pim.lut_exec_ms, 0.0);
    EXPECT_GT(pim.lut_modeled_ms, 0.0);

    const LayerTimes host = replayForward(model, tokens, kSeq,
                                          LinearBackendKind::HostLut, {});
    EXPECT_EQ(host.visited, forwardKinds(smallConfig(), &upmem));
    EXPECT_GT(host.host_lut_ms, 0.0);
    EXPECT_DOUBLE_EQ(host.lut_exec_ms, 0.0);

    // Spans land on both clocks: host spans on the thread's row, sim
    // spans on a row of their own that says its clock.
    bool sim = false, host_clock = false;
    for (const obs::TraceEvent &e : tracer.events()) {
        const bool is_sim = !e.args.empty() && e.args[0].first == "clock" &&
                            e.args[0].second == "\"sim\"";
        (is_sim ? sim : host_clock) = true;
    }
    EXPECT_TRUE(sim);
    EXPECT_TRUE(host_clock);
    tracer.clear();
}

TEST(PerfbenchReplay, UnplannedModelVisitsTheHostLutPlan)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(false);
    double convert_ms = 0.0;
    const ReplayModel model =
        buildReplayModel(smallConfig(), seededTensor(64, 32, 3), kSeq,
                         nullptr, kRows, convert_ms);
    const LayerTimes host =
        replayForward(model, seededTensor(kRows, 32, 6), kSeq,
                      LinearBackendKind::HostLut, {});
    EXPECT_EQ(host.visited, forwardKinds(smallConfig(), nullptr));
    EXPECT_THROW(replayForward(model, seededTensor(kRows, 32, 6), kSeq,
                               LinearBackendKind::PimLut, {}),
                 std::invalid_argument);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(PerfbenchReplay, ReproducesForwardBitForBitAndPricesLikeIt)
{
    // Same config seed and calibration: the replay rebuilds the real
    // model's tables, so its walk computes forward()'s output exactly
    // and its LUT ops price to the same modeled seconds (no transfer
    // engine on either side).
    const PimPlatformConfig upmem = upmemPlatform();
    const Tensor calibration = seededTensor(64, 32, 3);
    FunctionalTransformer real(smallConfig());
    real.convertToLut(calibration, kSeq);
    real.planPimExecution(upmem, kRows);
    const Tensor tokens = seededTensor(kRows, 32, 6);
    const Tensor pim_out =
        real.forward(tokens, kSeq, LinearBackendKind::PimLut);
    const Tensor host_out =
        real.forward(tokens, kSeq, LinearBackendKind::HostLut);

    double convert_ms = 0.0;
    const ReplayModel model = buildReplayModel(
        smallConfig(), calibration, kSeq, &upmem, kRows, convert_ms);
    const LayerTimes pim = replayForward(
        model, tokens, kSeq, LinearBackendKind::PimLut, {});
    EXPECT_TRUE(bitIdentical(pim.output, pim_out));
    EXPECT_DOUBLE_EQ(pim.lut_modeled_ms, real.lastPimEngineSeconds() * 1e3);
    const LayerTimes host = replayForward(
        model, tokens, kSeq, LinearBackendKind::HostLut, {});
    EXPECT_TRUE(bitIdentical(host.output, host_out));
}

} // namespace
} // namespace perfbench
