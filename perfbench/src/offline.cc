/**
 * @file
 * The `offline` workload: one caller runs back-to-back PimLut forwards
 * of a BERT-base-width encoder layer over batches of 8 x 128 tokens on
 * UPMEM, with the transfer engine (staging scheduler + resident LUTs)
 * attached — the paper's execution path.
 */

#include <memory>

#include "common/parallel.h"
#include "host_probe.h"
#include "obs/trace.h"
#include "pinned.h"
#include "runtime/functional_transformer.h"
#include "workload.h"

namespace perfbench {

using namespace pimdl;

namespace {

constexpr std::size_t kBatch = 8;
constexpr std::size_t kSeq = 128;
constexpr std::size_t kRows = kBatch * kSeq;
constexpr std::size_t kCalibrationRows = 128;
constexpr std::size_t kInputBatches = 4;
/** Per-batch latency limit: about 5x the unloaded batch latency of a
 * 4-vCPU host. */
constexpr double kSloS = 10.0;

/** A deployed model: converted, planned, transfer engine running.
 * The engine parts are declared first so they outlive the model that
 * points at them. */
struct Deployment
{
    std::unique_ptr<transfer::TransferScheduler> scheduler;
    std::unique_ptr<transfer::ResidentLutManager> resident;
    std::unique_ptr<FunctionalTransformer> model;
};

Deployment
deploy()
{
    const PimPlatformConfig upmem = upmemPlatform();
    Deployment d;
    {
        obs::TraceSpan span("setup.model_build");
        d.model = std::make_unique<FunctionalTransformer>(bertBaseLayer());
    }
    {
        obs::TraceSpan span("setup.convertToLut");
        d.model->convertToLut(
            calibrationBatch(kCalibrationRows, d.model->config().hidden),
            kSeq);
    }
    {
        obs::TraceSpan span("setup.planPimExecution");
        d.model->planPimExecution(upmem, kRows);
    }
    {
        obs::TraceSpan span("setup.transfer_engine");
        d.scheduler = std::make_unique<transfer::TransferScheduler>(
            transfer::TransferScheduler::Options{});
        d.resident = std::make_unique<transfer::ResidentLutManager>(
            transfer::residentLutCapacityBytes(upmem));
        d.model->enableTransferEngine(d.scheduler.get(), d.resident.get());
    }
    return d;
}

Deployment
repeatedDeploy(std::vector<double> &samples, SpeedScale *scale)
{
    return repeatedSetup(samples, scale, [] { return deploy(); });
}

/** Checks a PimLut output bit-for-bit against the HostLut path. */
void
checkAgainstHostLut(const FunctionalTransformer &model, const Tensor &input,
                    const Tensor &pim_out, const char *which,
                    RunResult &result)
{
    const Tensor host = model.forward(input, kSeq, LinearBackendKind::HostLut);
    if (!bitIdentical(host, pim_out)) {
        ++result.failed;
        result.fail(std::string(which) +
                    " timed batch: PimLut output differs from HostLut");
    }
}

/** Checks the sim-clock values against the pinned ones. */
void
checkModeled(RunResult &result, double engine_s, const ModeledPair &pair)
{
    checkPinned(result, "offline engine-priced seconds per warm batch",
                engine_s, pinned::kOfflineEngineS);
    checkPinned(result, "offline analytical seconds", pair.analytical_s,
                pinned::kOfflineAnalyticalS);
    checkPinned(result, "offline transaction seconds", pair.transaction_s,
                pinned::kOfflineTransactionS);
}

ModeledPair
offlineModeled()
{
    return priceOnBothBackends(bertBaseLayerShape(kBatch, kSeq),
                               upmemPlatform());
}

RunResult
timedRun(const RunOptions &options)
{
    RunResult result;
    EndToEnd e2e;
    // Set-up runs mostly on one thread. A forward fans out over as many
    // threads as parallelFor spawns, with a serial share of its CPU
    // time between the fan-outs; its probe does the same.
    SpeedProbe probe;
    SpeedScale setup_scale(probe, kSerialShape);
    SpeedScale scale(probe, {1, pimdl::parallelWorkerCount(), 2});
    e2e.own_rss_mb = probe.tableMb();
    Deployment d = repeatedDeploy(e2e.setup_samples_s, &setup_scale);
    const FunctionalTransformer &model = *d.model;

    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < kInputBatches; ++i)
        inputs.push_back(seededTensor(kRows, model.config().hidden,
                                      options.seed * 1000 + 17 + i));
    (void)model.forward(inputs[0], kSeq, LinearBackendKind::PimLut); // warm

    // A probe pass after every batch: batch i runs between pass i and
    // the next, and is scaled by the passes around it.
    std::vector<double> wall_s, cpu_s, engine_s;
    std::size_t last = 0;
    Tensor first_out, last_out;
    scale.sample();
    const PhaseClock phase;
    for (std::size_t i = 0; phase.wallElapsed() < options.seconds; ++i) {
        const Tensor &in = inputs[i % inputs.size()];
        const double t0 = wallSeconds();
        const double c0 = processCpuSeconds();
        Tensor out = model.forward(in, kSeq, LinearBackendKind::PimLut);
        wall_s.push_back(wallSeconds() - t0);
        cpu_s.push_back(processCpuSeconds() - c0);
        ++result.attempted;
        engine_s.push_back(model.lastPimEngineSeconds());
        if (i == 0)
            first_out = out;
        last = i;
        last_out = std::move(out);
        scale.sample();
    }

    double wall_sum = 0.0, cpu_sum = 0.0, raw_wall = 0.0, raw_cpu = 0.0;
    std::size_t met = 0;
    for (std::size_t i = 0; i < wall_s.size(); ++i) {
        const double latency = wall_s[i] * scale.wallFactorAt(i);
        e2e.latencies_s.push_back(latency);
        met += latency <= kSloS;
        wall_sum += latency;
        cpu_sum += cpu_s[i] * scale.cpuFactorAt(i);
        raw_wall += wall_s[i];
        raw_cpu += cpu_s[i];
    }
    const double sequences = static_cast<double>(kBatch * result.attempted);
    e2e.throughput = sequences / wall_sum;
    e2e.cpu_ms_per_op = cpu_sum * 1e3 / sequences;
    e2e.slo_met_pct = 100.0 * static_cast<double>(met) /
                      static_cast<double>(result.attempted);
    result.diagnostics = {
        {"host.steal_pct", phase.stealPct(), "%", "host"},
        {"host.load_1m", loadAverage1m(), "count", "host"},
        {"host.speed_wall", scale.wallFactor(), "x", "host-wall"},
        {"host.setup_speed_wall", setup_scale.wallFactor(), "x", "host-wall"},
        {"host.speed_cpu", scale.cpuFactor(), "x", "host-cpu"},
        {"raw.throughput", sequences / raw_wall, "1/s", "host-wall"},
        {"raw.cpu_ms_per_op", raw_cpu * 1e3 / sequences, "ms", "host-cpu"},
        {"common.parallel.busy_pct", 100.0 * raw_cpu /
             (raw_wall * static_cast<double>(pimdl::parallelWorkerCount())),
         "%", "host-cpu"},
    };

    checkAgainstHostLut(model, inputs[0], first_out, "first", result);
    if (last != 0)
        checkAgainstHostLut(model, inputs[last % inputs.size()], last_out,
                            "last", result);
    for (const double s : engine_s)
        if (s != engine_s.front())
            result.fail("engine-priced seconds changed between warm batches");
    e2e.modeled_ms = engine_s.front() * 1e3;
    const ModeledPair pair = offlineModeled();
    e2e.xval_err_pct = pair.errPct();
    checkModeled(result, engine_s.front(), pair);

    reportEndToEnd(e2e, result);
    return result;
}

RunResult
tracedRun(const RunOptions &options)
{
    RunResult result;
    std::vector<double> setup_samples;
    Deployment d = repeatedDeploy(setup_samples, nullptr);
    const FunctionalTransformer &model = *d.model;
    const PimPlatformConfig upmem = upmemPlatform();

    LayerReport layers;
    ReplayModel replay;
    {
        obs::TraceSpan span("replay.setup");
        replay = buildReplayModel(
            model.config(),
            calibrationBatch(kCalibrationRows, model.config().hidden),
            kSeq, &upmem, kRows, layers.convert_ms);
    }
    transfer::TransferScheduler replay_scheduler(
        transfer::TransferScheduler::Options{});
    transfer::ResidentLutManager replay_resident(
        transfer::residentLutCapacityBytes(upmem));
    const ReplayTransfer replay_transfer{&replay_scheduler, &replay_resident};

    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < kInputBatches; ++i)
        inputs.push_back(seededTensor(kRows, model.config().hidden,
                                      options.seed * 1000 + 17 + i));
    (void)model.forward(inputs[0], kSeq, LinearBackendKind::PimLut);
    (void)replayForward(replay, inputs[0], kSeq, LinearBackendKind::PimLut,
                        replay_transfer);

    // Each iteration runs the forward untraced, the same forward traced
    // (program tracer on, inside a span) and its layer replay; the
    // replay goes first on odd iterations so drift in machine speed
    // does not bias the coverage ratio.
    std::vector<double> untraced_ms, traced_ms, replay_ms;
    std::vector<LayerTimes> replays;
    Tensor first_out, last_out;
    std::size_t last = 0, matched = 0;
    const PhaseClock phase;
    for (std::size_t i = 0; phase.wallElapsed() < options.seconds; ++i) {
        const Tensor &in = inputs[i % inputs.size()];
        obs::Tracer::instance().setEnabled(false);
        double t0 = wallSeconds();
        (void)model.forward(in, kSeq, LinearBackendKind::PimLut);
        untraced_ms.push_back((wallSeconds() - t0) * 1e3);

        obs::Tracer::instance().setEnabled(true);
        obs::TraceSpan iteration("iteration");
        auto replay_once = [&] {
            replays.push_back(replayForward(replay, in, kSeq,
                                            LinearBackendKind::PimLut,
                                            replay_transfer));
            replay_ms.push_back(replays.back().sumMs());
        };
        if (i % 2 == 1)
            replay_once();
        Tensor out;
        {
            obs::TraceSpan span("runtime.functional_transformer.forward");
            t0 = wallSeconds();
            out = model.forward(in, kSeq, LinearBackendKind::PimLut);
            traced_ms.push_back((wallSeconds() - t0) * 1e3);
        }
        recordSimSpan("pim.forward", model.lastPimEngineSeconds());
        if (i % 2 == 0)
            replay_once();
        matched += bitIdentical(replays.back().output, out);
        ++result.attempted;
        if (i == 0)
            first_out = out;
        last = i;
        last_out = std::move(out);
    }
    layers.busy_pct = phase.busyPct();

    checkAgainstHostLut(model, inputs[0], first_out, "first", result);
    if (last != 0)
        checkAgainstHostLut(model, inputs[last % inputs.size()], last_out,
                            "last", result);
    checkModeled(result, model.lastPimEngineSeconds(), offlineModeled());

    layers.addReplays(replays);
    layers.forward_ms = median(traced_ms);
    layers.coverage_pct = 100.0 * median(replay_ms) / median(traced_ms);
    checkReplayOutputs(result, replays.size(), matched);
    checkCoverage(result, layers.coverage_pct);
    layers.trace_overhead_pct =
        100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);
    {
        obs::TraceSpan span("replay.host_lut");
        const LayerTimes host = replayForward(
            replay, inputs[0], kSeq, LinearBackendKind::HostLut, {});
        layers.host_lut_ms = host.host_lut_ms;
    }
    {
        obs::TraceSpan span("replay.pricing");
        layers.addPricings(
            {replayPricing(bertBaseLayerShape(kBatch, kSeq), upmem)});
    }
    reportLayers(layers, result);
    result.diagnostics = {
        {"setup_s", median(setup_samples), "s", "host-wall"},
        {"replay.output_match_pct",
         100.0 * static_cast<double>(matched) /
             static_cast<double>(replays.size()),
         "%", "host"},
    };
    return result;
}

} // namespace

RunResult
runOffline(const RunOptions &options)
{
    return options.trace ? tracedRun(options) : timedRun(options);
}

} // namespace perfbench
