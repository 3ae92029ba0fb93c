/**
 * @file
 * What every workload takes and returns, and the helpers they share:
 * the end-to-end metric set, the per-layer metric set, pinned
 * sim-clock values, and pricing a model under both timing backends.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "host_probe.h"
#include "nn/model_config.h"
#include "pim/platform.h"
#include "obs/trace.h"
#include "replay.h"
#include "stats.h"

namespace perfbench {

struct RunOptions
{
    std::uint64_t seed = 1;
    /** Length of the measured phase, seconds (BENCHMARK.json's
     * run_seconds). */
    double seconds = 30.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
};

/** One reported number. `clock` says what measured it: host-wall,
 * host-cpu, sim (modeled PIM time) or host (memory, counts). */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string clock;
};

struct RunResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** One line per failed operation or check. */
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Machine-noise readings printed beside the metrics. */
    std::vector<Metric> diagnostics;

    bool correct() const { return failed == 0 && failures.empty(); }

    /** Records a failed check that is not itself an operation. */
    void fail(const std::string &why) { failures.push_back(why); }
};

/**
 * The end-to-end metric set every workload reports. Host times here
 * are already scaled to the speed probe's nominal speed (SpeedScale);
 * the raw readings go to the diagnostics.
 */
struct EndToEnd
{
    /** Operations per second over the measured phase. */
    double throughput = 0.0;
    /** Per-operation latency samples, seconds. */
    std::vector<double> latencies_s;
    double slo_met_pct = 0.0;
    double cpu_ms_per_op = 0.0;
    double modeled_ms = 0.0;
    double xval_err_pct = 0.0;
    /** One sample per repeated set-up, seconds. */
    std::vector<double> setup_samples_s;
    /** Memory the benchmark itself holds (the speed probe's table),
     * left out of peak_rss_mb. */
    double own_rss_mb = 0.0;
};

/** Set-ups per run; setup_s is their median. */
inline constexpr std::size_t kSetupRepeats = 3;

/**
 * Runs @p deploy() kSetupRepeats times, each under a "setup" span,
 * appending each wall time to @p samples; returns the last deployment.
 * The previous deployment is torn down before the next is built, so
 * the samples do not overlap. With a @p scale, a probe pass runs
 * before and after each set-up and the samples are scaled by the
 * factor of those passes.
 */
template <typename Deploy>
auto
repeatedSetup(std::vector<double> &samples, SpeedScale *scale,
              Deploy &&deploy)
{
    decltype(deploy()) d{};
    const std::size_t first_sample = samples.size();
    const std::size_t first_pass = scale ? scale->passes() : 0;
    if (scale)
        scale->sample();
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        {
            pimdl::obs::TraceSpan span("setup");
            d = {};
            const double t0 = wallSeconds();
            d = deploy();
            samples.push_back(wallSeconds() - t0);
        }
        if (scale)
            scale->sample();
    }
    if (scale) {
        const double factor =
            scale->wallFactor(first_pass, scale->passes() - 1);
        for (std::size_t i = first_sample; i < samples.size(); ++i)
            samples[i] *= factor;
    }
    return d;
}

/**
 * Records @p seconds of modeled PIM time as a span on the trace's sim
 * track, laid end to end after the previous sim span so successive
 * operations read as one modeled timeline. The track's microseconds
 * are sim time, not host time; each span says so in its "clock"
 * attribute. No-op while the program's tracer is off.
 */
void recordSimSpan(const std::string &name, double seconds);

/**
 * Records a host span rebuilt after the fact from wallSeconds() stamps
 * @p start_s and @p end_s, on trace row @p track (a row of its own,
 * apart from the threads' rows). No-op while the tracer is off.
 */
void recordHostSpan(const std::string &name, std::uint64_t track,
                    double start_s, double end_s,
                    const std::vector<std::pair<std::string, double>> &args);

/** Metrics (and diagnostics on the tail percentile and set-up
 * samples) of an end-to-end run. */
void reportEndToEnd(const EndToEnd &e2e, RunResult &result);

/** Every per-layer metric; layers a workload never calls stay 0. */
struct LayerReport
{
    double plan_lower_ms = 0.0;
    double ccs_ms = 0.0;
    double host_lut_ms = 0.0;
    double convert_ms = 0.0;
    double lut_exec_host_ms = 0.0;
    double lut_exec_cpu_ms = 0.0;
    double lut_exec_modeled_ms = 0.0;
    double transfer_bursts = 0.0;
    double transfer_staged_mb = 0.0;
    double transfer_hidden_ms = 0.0;
    double transfer_saved_ms = 0.0;
    double transfer_resident_hit_pct = 0.0;
    double transfer_overlap_pct = 0.0;
    double attention_ms = 0.0;
    double elementwise_ms = 0.0;
    double busy_pct = 0.0;
    double forward_ms = 0.0;
    double coverage_pct = 0.0;
    double queue_wait_p50_ms = 0.0;
    double queue_wait_p99_ms = 0.0;
    double service_p50_ms = 0.0;
    double batch_size_mean = 0.0;
    double rejected = 0.0;
    double serving_failed = 0.0;
    double tune_ms = 0.0;
    double tune_evaluated = 0.0;
    double analytical_cost_ms = 0.0;
    double transaction_cost_ms = 0.0;
    double estimate_warm_ms = 0.0;
    double trace_overhead_pct = 0.0;

    /** Medians of the functional-layer fields over @p replays. */
    void addReplays(const std::vector<LayerTimes> &replays);
    /** Medians of the pricing-layer fields over @p pricings. */
    void addPricings(const std::vector<PricingTimes> &pricings);
};

void reportLayers(const LayerReport &layers, RunResult &result);

/** Counts each of @p replays replayed outputs as an operation that
 * fails unless it equals, bit for bit, the forward() it shadows
 * (@p matched did). */
void checkReplayOutputs(RunResult &result, std::size_t replays,
                        std::size_t matched);

/** How far the offline replay's summed layer times may sit from
 * forward_ms. */
inline constexpr double kCoverageTolerancePct = 10.0;

/** Fails the run unless @p coverage_pct is within
 * kCoverageTolerancePct of 100. */
void checkCoverage(RunResult &result, double coverage_pct);

/** Modeled seconds of one configuration under both timing backends,
 * each priced by a fresh engine. */
struct ModeledPair
{
    double analytical_s = 0.0;
    double transaction_s = 0.0;

    /** |analytical - transaction| / transaction, percent. */
    double errPct() const;
};

ModeledPair priceOnBothBackends(const pimdl::TransformerConfig &model,
                                const pimdl::PimPlatformConfig &platform);

/** Records a failure naming both values unless @p got equals the
 * pinned @p want to 1e-12 relative. */
void checkPinned(RunResult &result, const std::string &what, double got,
                 double want);

/**
 * Seed of the deployed model's weights and of its calibration batch.
 * The model is part of the workload, like a released checkpoint, so
 * its k-means conversion (most of set-up time, and seed-dependent in
 * length) is the same work in every run; the run's seed draws the
 * inputs the model is fed.
 */
inline constexpr std::uint64_t kModelSeed = 1;

/** The BERT-base-width, one-layer functional model both functional
 * workloads run, with kModelSeed weights. */
pimdl::FunctionalTransformerConfig bertBaseLayer();

/** The calibration activations convertToLut fits the model to. */
pimdl::Tensor calibrationBatch(std::size_t rows, std::size_t hidden);

/** Shape of @p batch sequences of @p seq tokens of that model. */
pimdl::TransformerConfig bertBaseLayerShape(std::size_t batch,
                                            std::size_t seq);

/** Seeded Gaussian tensor. */
pimdl::Tensor seededTensor(std::size_t rows, std::size_t cols,
                           std::uint64_t seed);

/** True when @p a and @p b hold bit-identical values. */
bool bitIdentical(const pimdl::Tensor &a, const pimdl::Tensor &b);

RunResult runOffline(const RunOptions &options);
RunResult runServe(const RunOptions &options);
RunResult runPrice(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
