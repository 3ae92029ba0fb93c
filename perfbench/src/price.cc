/**
 * @file
 * The `price` workload: a single thread repeats a cold design-space
 * sweep over {BERT-base, BERT-large, ViT-base, ViT-huge} x {UPMEM,
 * HBM-PIM, AiM}. Pricing one configuration builds fresh engines and
 * runs estimatePimDl under the analytical and the transaction backend.
 * No functional compute runs; the tuner, plan and backends do the work.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>

#include "common/parallel.h"
#include "host_probe.h"
#include "obs/trace.h"
#include "pinned.h"
#include "workload.h"

namespace perfbench {

using namespace pimdl;

namespace {

/** Per-configuration latency limit: about 5x the ~0.8 s a cold
 * configuration takes on a 4-vCPU host. */
constexpr double kSloS = 5.0;
/** Whole sweeps the latency metrics are taken over: what a 30 s run
 * completes even on a slow host. */
constexpr std::size_t kLatencySweeps = 3;

struct SweepEntry
{
    TransformerConfig model;
    PimPlatformConfig platform;
    const pinned::PricePoint *pinned = nullptr;
    /** Position in the unshuffled sweep: totals are summed in this
     * order, so they repeat bit-for-bit whatever the seed. */
    std::size_t canonical = 0;
};

/** The 12 configurations in a seeded order. */
std::vector<SweepEntry>
buildSweep(std::uint64_t seed)
{
    std::vector<SweepEntry> sweep;
    for (const TransformerConfig &model :
         {bertBase(), bertLarge(), vitBase(), vitHuge()}) {
        for (const PimPlatformConfig &platform :
             {upmemPlatform(), hbmPimPlatform(), aimPlatform()}) {
            SweepEntry entry{model, platform, nullptr, sweep.size()};
            for (const pinned::PricePoint &p : pinned::kPrice)
                if (model.name == p.model && platform.name == p.platform)
                    entry.pinned = &p;
            sweep.push_back(std::move(entry));
        }
    }
    std::mt19937_64 engine(seed);
    std::shuffle(sweep.begin(), sweep.end(), engine);
    return sweep;
}

/** Prices one configuration and checks it; returns false on failure. */
bool
priceChecked(const SweepEntry &entry, ModeledPair &pair, RunResult &result)
{
    const std::string what = entry.model.name + " on " + entry.platform.name;
    try {
        pair = priceOnBothBackends(entry.model, entry.platform);
    } catch (const std::exception &e) {
        result.fail(what + ": " + e.what());
        return false;
    }
    const auto usable = [](double s) { return std::isfinite(s) && s > 0.0; };
    if (!usable(pair.analytical_s) || !usable(pair.transaction_s)) {
        result.fail(what + ": non-finite or non-positive estimate");
        return false;
    }
    if (entry.pinned == nullptr) {
        result.fail(what + ": no pinned value");
        return false;
    }
    const std::size_t before = result.failures.size();
    checkPinned(result, what + " analytical seconds", pair.analytical_s,
                entry.pinned->analytical_s);
    checkPinned(result, what + " transaction seconds", pair.transaction_s,
                entry.pinned->transaction_s);
    return result.failures.size() == before;
}

std::vector<SweepEntry>
setUpSweep(std::uint64_t seed, std::vector<double> &samples,
           SpeedScale *scale, RunResult &result)
{
    return repeatedSetup(samples, scale, [&] {
        std::vector<SweepEntry> sweep = buildSweep(seed);
        // Warm-up: one cold pricing of the same configuration whatever
        // the seed (the first of the unshuffled sweep) pays the
        // process's lazy set-up.
        const auto first = std::find_if(
            sweep.begin(), sweep.end(),
            [](const SweepEntry &e) { return e.canonical == 0; });
        ModeledPair pair;
        (void)priceChecked(*first, pair, result);
        return sweep;
    });
}

RunResult
timedRun(const RunOptions &options)
{
    RunResult result;
    EndToEnd e2e;
    // Pricing runs on the calling thread: a one-thread probe.
    SpeedProbe probe;
    SpeedScale scale(probe, kSerialShape);
    e2e.own_rss_mb = probe.tableMb();
    const std::vector<SweepEntry> sweep =
        setUpSweep(options.seed, e2e.setup_samples_s, &scale, result);

    // A probe pass after every configuration: configuration i is priced
    // between pass first_pass + i and the next.
    std::vector<std::optional<ModeledPair>> priced(sweep.size());
    std::vector<double> wall_s, cpu_s;
    std::vector<bool> ok;
    const std::size_t first_pass = scale.passes();
    scale.sample();
    const PhaseClock phase;
    for (std::size_t i = 0; phase.wallElapsed() < options.seconds; ++i) {
        const std::size_t k = i % sweep.size();
        ModeledPair pair;
        const double t0 = wallSeconds();
        const double c0 = processCpuSeconds();
        ok.push_back(priceChecked(sweep[k], pair, result));
        wall_s.push_back(wallSeconds() - t0);
        cpu_s.push_back(processCpuSeconds() - c0);
        ++result.attempted;
        if (ok.back())
            priced[sweep[k].canonical] = pair;
        else
            ++result.failed;
        scale.sample();
    }

    // Rates and latencies count whole sweeps only: a partial last
    // sweep would weight the configurations by where the seeded order
    // happened to stop. Runs too short for one sweep fall back to
    // every operation. The latency percentiles take the same number of
    // sweeps in every run, so the tail rule lands on the same rank
    // whether the host managed three sweeps or four.
    std::size_t whole = wall_s.size() / sweep.size() * sweep.size();
    if (whole == 0)
        whole = wall_s.size();
    const std::size_t timed = std::min(whole, kLatencySweeps * sweep.size());
    double wall_sum = 0.0, cpu_sum = 0.0, raw_wall = 0.0, raw_cpu = 0.0;
    std::size_t met = 0;
    for (std::size_t i = 0; i < whole; ++i) {
        const double latency = wall_s[i] * scale.wallFactorAt(first_pass + i);
        wall_sum += latency;
        cpu_sum += cpu_s[i] * scale.cpuFactorAt(first_pass + i);
        raw_wall += wall_s[i];
        raw_cpu += cpu_s[i];
        if (ok[i] && i < timed) {
            e2e.latencies_s.push_back(latency);
            met += latency <= kSloS;
        }
    }
    const auto ops = static_cast<double>(whole);
    e2e.throughput = ops / wall_sum;
    e2e.cpu_ms_per_op = cpu_sum * 1e3 / ops;
    e2e.slo_met_pct =
        100.0 * static_cast<double>(met) / static_cast<double>(timed);
    result.diagnostics = {
        {"host.steal_pct", phase.stealPct(), "%", "host"},
        {"host.load_1m", loadAverage1m(), "count", "host"},
        {"host.speed_wall", scale.wallFactor(), "x", "host-wall"},
        {"host.speed_cpu", scale.cpuFactor(), "x", "host-cpu"},
        {"raw.throughput", ops / raw_wall, "1/s", "host-wall"},
        {"raw.cpu_ms_per_op", raw_cpu * 1e3 / ops, "ms", "host-cpu"},
        {"common.parallel.busy_pct",
         100.0 * raw_cpu /
             (raw_wall * static_cast<double>(pimdl::parallelWorkerCount())),
         "%", "host-cpu"},
        {"price.whole_sweeps", ops / static_cast<double>(sweep.size()),
         "count", "host"},
    };

    // Sweep totals: configurations the timed phase did not reach are
    // priced now, untimed.
    for (const SweepEntry &entry : sweep) {
        ModeledPair pair;
        if (!priced[entry.canonical] && priceChecked(entry, pair, result))
            priced[entry.canonical] = pair;
    }
    double analytical_sum = 0.0, err_sum = 0.0;
    for (const auto &pair : priced) {
        if (!pair)
            continue;
        analytical_sum += pair->analytical_s;
        err_sum += pair->errPct();
    }
    e2e.modeled_ms = analytical_sum * 1e3;
    e2e.xval_err_pct = err_sum / static_cast<double>(sweep.size());
    checkPinned(result, "price sweep analytical sum", e2e.modeled_ms,
                pinned::kPriceSweepModeledMs);
    checkPinned(result, "price sweep mean xval error", e2e.xval_err_pct,
                pinned::kPriceSweepXvalErrPct);

    reportEndToEnd(e2e, result);
    return result;
}

RunResult
tracedRun(const RunOptions &options)
{
    RunResult result;
    std::vector<double> setup_samples;
    const std::vector<SweepEntry> sweep =
        setUpSweep(options.seed, setup_samples, nullptr, result);

    // Each configuration: priced untraced, priced traced (program
    // tracer on, inside a span), then its pricing replay.
    std::vector<double> untraced_ms, traced_ms;
    std::vector<PricingTimes> pricings;
    const PhaseClock phase;
    for (std::size_t i = 0; phase.wallElapsed() < options.seconds; ++i) {
        const SweepEntry &entry = sweep[i % sweep.size()];
        ModeledPair pair;
        obs::Tracer::instance().setEnabled(false);
        double t0 = wallSeconds();
        const bool ok = priceChecked(entry, pair, result);
        untraced_ms.push_back((wallSeconds() - t0) * 1e3);

        obs::Tracer::instance().setEnabled(true);
        obs::TraceSpan iteration("config");
        iteration.attr("analytical_ms", pair.analytical_s * 1e3);
        {
            obs::TraceSpan span("runtime.engine.estimate_cold_pair");
            t0 = wallSeconds();
            (void)priceOnBothBackends(entry.model, entry.platform);
            traced_ms.push_back((wallSeconds() - t0) * 1e3);
        }
        recordSimSpan("pim." + entry.model.name + "@" + entry.platform.name,
                      pair.analytical_s);
        pricings.push_back(replayPricing(entry.model, entry.platform));
        ++result.attempted;
        result.failed += ok ? 0 : 1;
    }

    LayerReport layers;
    layers.busy_pct = phase.busyPct();
    layers.addPricings(pricings);
    std::vector<double> lower;
    for (const PricingTimes &p : pricings)
        lower.push_back(p.lower_ms);
    layers.plan_lower_ms = median(lower);
    layers.trace_overhead_pct =
        100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);
    reportLayers(layers, result);
    result.diagnostics = {
        {"setup_s", median(setup_samples), "s", "host-wall"},
        {"host.steal_pct", phase.stealPct(), "%", "host"},
    };
    return result;
}

} // namespace

RunResult
runPrice(const RunOptions &options)
{
    return options.trace ? tracedRun(options) : timedRun(options);
}

} // namespace perfbench
