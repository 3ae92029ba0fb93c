#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "common/rng.h"
#include "host/host_model.h"
#include "host_probe.h"
#include "runtime/engine.h"

namespace perfbench {

using namespace pimdl;

namespace {

/** Median of @p field over @p items. */
template <typename T, typename F>
double
medianOf(const std::vector<T> &items, F field)
{
    std::vector<double> values;
    values.reserve(items.size());
    for (const T &item : items)
        values.push_back(field(item));
    return median(std::move(values));
}

/** Trace rows of the sim track and of rebuilt host spans, far above
 * the tracer's small per-thread ids. */
constexpr std::uint64_t kSimTrack = 1000000;
constexpr std::uint64_t kRebuiltTrackBase = 1000001;

std::string
jsonNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

void
recordSimSpan(const std::string &name, double seconds)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    if (!tracer.enabled())
        return;
    static double cursor_s = 0.0;
    obs::TraceEvent event;
    event.name = name;
    event.ts_us = static_cast<std::uint64_t>(cursor_s * 1e6);
    event.dur_us = static_cast<std::uint64_t>(seconds * 1e6);
    event.tid = kSimTrack;
    event.args = {{"clock", "\"sim\""},
                  {"sim_ms", jsonNumber(seconds * 1e3)}};
    cursor_s += seconds;
    tracer.record(std::move(event));
}

void
recordHostSpan(const std::string &name, std::uint64_t track, double start_s,
               double end_s,
               const std::vector<std::pair<std::string, double>> &args)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    if (!tracer.enabled())
        return;
    // The tracer's epoch on the wallSeconds() clock.
    const double epoch_s =
        wallSeconds() - static_cast<double>(tracer.nowMicros()) * 1e-6;
    obs::TraceEvent event;
    event.name = name;
    event.ts_us = static_cast<std::uint64_t>(
        std::max(0.0, (start_s - epoch_s) * 1e6));
    event.dur_us = static_cast<std::uint64_t>(
        std::max(0.0, (end_s - start_s) * 1e6));
    event.tid = kRebuiltTrackBase + track;
    for (const auto &[key, value] : args)
        event.args.emplace_back(key, jsonNumber(value));
    tracer.record(std::move(event));
}

void
reportEndToEnd(const EndToEnd &e2e, RunResult &result)
{
    double p50_ms = 0.0;
    Tail tail;
    if (e2e.latencies_s.empty()) {
        result.fail("no operation completed, so no latency was measured");
    } else {
        p50_ms = median(e2e.latencies_s) * 1e3;
        tail = tailPercentile(e2e.latencies_s);
    }
    const double setup_s =
        e2e.setup_samples_s.empty() ? 0.0 : median(e2e.setup_samples_s);
    result.metrics = {
        {"throughput", e2e.throughput, "1/s", "host-wall"},
        {"latency_p50_ms", p50_ms, "ms", "host-wall"},
        {"latency_p99_ms", tail.value * 1e3, "ms", "host-wall"},
        {"slo_met_pct", e2e.slo_met_pct, "%", "host-wall"},
        {"cpu_ms_per_op", e2e.cpu_ms_per_op, "ms", "host-cpu"},
        {"modeled_ms", e2e.modeled_ms, "ms_sim", "sim"},
        {"xval_err_pct", e2e.xval_err_pct, "%", "sim"},
        {"setup_s", setup_s, "s", "host-wall"},
        {"peak_rss_mb", peakRssMb() - e2e.own_rss_mb, "MB", "host"},
    };
    result.diagnostics.push_back({"latency.samples",
                                  static_cast<double>(tail.samples),
                                  "count", "host"});
    result.diagnostics.push_back(
        {"latency.tail_percentile", tail.percentile, "%", "host"});
    if (e2e.latencies_s.size() >= 2) {
        // Spread of the latencies inside this run, beside the
        // run-to-run spread the metrics are judged on.
        const auto q = quartiles(e2e.latencies_s);
        result.diagnostics.push_back(
            {"latency.iqr_pct", 100.0 * (q[2] - q[0]) / q[1], "%",
             "host-wall"});
    }
    for (std::size_t i = 0; i < e2e.setup_samples_s.size(); ++i)
        result.diagnostics.push_back({"setup." + std::to_string(i) + "_s",
                                      e2e.setup_samples_s[i], "s",
                                      "host-wall"});
}

void
LayerReport::addReplays(const std::vector<LayerTimes> &replays)
{
    if (replays.empty())
        return;
    plan_lower_ms = medianOf(replays, [](auto &t) { return t.lower_ms; });
    ccs_ms = medianOf(replays, [](auto &t) { return t.ccs_ms; });
    host_lut_ms = medianOf(replays, [](auto &t) { return t.host_lut_ms; });
    lut_exec_host_ms =
        medianOf(replays, [](auto &t) { return t.lut_exec_ms; });
    lut_exec_cpu_ms =
        medianOf(replays, [](auto &t) { return t.lut_exec_cpu_ms; });
    lut_exec_modeled_ms =
        medianOf(replays, [](auto &t) { return t.lut_modeled_ms; });
    attention_ms = medianOf(replays, [](auto &t) { return t.attention_ms; });
    elementwise_ms =
        medianOf(replays, [](auto &t) { return t.elementwise_ms; });
    transfer_bursts = medianOf(
        replays, [](auto &t) { return double(t.transfer.bursts); });
    transfer_staged_mb = medianOf(
        replays, [](auto &t) { return t.transfer.staged_bytes / 1e6; });
    transfer_hidden_ms = medianOf(
        replays, [](auto &t) { return t.transfer.hidden_model_s * 1e3; });
    transfer_saved_ms = medianOf(
        replays, [](auto &t) { return t.transfer.saved_stage_s * 1e3; });
    transfer_resident_hit_pct = medianOf(replays, [](auto &t) {
        const double total = static_cast<double>(t.transfer.resident_hits +
                                                 t.transfer.resident_misses);
        return total > 0.0 ? 100.0 * t.transfer.resident_hits / total : 0.0;
    });
    transfer_overlap_pct = medianOf(
        replays, [](auto &t) { return 100.0 * t.transfer.overlapFrac(); });
}

void
LayerReport::addPricings(const std::vector<PricingTimes> &pricings)
{
    if (pricings.empty())
        return;
    tune_ms = medianOf(pricings, [](auto &t) { return t.tune_ms; });
    tune_evaluated =
        medianOf(pricings, [](auto &t) { return double(t.evaluated); });
    analytical_cost_ms =
        medianOf(pricings, [](auto &t) { return t.analytical_cost_ms; });
    transaction_cost_ms =
        medianOf(pricings, [](auto &t) { return t.transaction_cost_ms; });
    estimate_warm_ms =
        medianOf(pricings, [](auto &t) { return t.estimate_warm_ms; });
}

void
reportLayers(const LayerReport &l, RunResult &result)
{
    const std::string sl = "runtime.serving_live.";
    result.metrics = {
        {"plan.lower_ms", l.plan_lower_ms, "ms", "host-wall"},
        {"lutnn.ccs_ms", l.ccs_ms, "ms", "host-wall"},
        {"lutnn.host_lut_ms", l.host_lut_ms, "ms", "host-wall"},
        {"lutnn.convert_ms", l.convert_ms, "ms", "host-wall"},
        {"runtime.lut_executor.host_ms", l.lut_exec_host_ms, "ms",
         "host-wall"},
        {"runtime.lut_executor.cpu_ms", l.lut_exec_cpu_ms, "ms", "host-cpu"},
        {"runtime.lut_executor.modeled_ms", l.lut_exec_modeled_ms, "ms_sim",
         "sim"},
        {"transfer.bursts", l.transfer_bursts, "count", "sim"},
        {"transfer.staged_mb", l.transfer_staged_mb, "MB", "sim"},
        {"transfer.hidden_ms", l.transfer_hidden_ms, "ms_sim", "sim"},
        {"transfer.saved_ms", l.transfer_saved_ms, "ms_sim", "sim"},
        {"transfer.resident_hit_pct", l.transfer_resident_hit_pct, "%",
         "sim"},
        {"transfer.overlap_pct", l.transfer_overlap_pct, "%", "sim"},
        {"tensor.attention_ms", l.attention_ms, "ms", "host-wall"},
        {"tensor.elementwise_ms", l.elementwise_ms, "ms", "host-wall"},
        {"common.parallel.busy_pct", l.busy_pct, "%", "host-cpu"},
        {"runtime.functional_transformer.forward_ms", l.forward_ms, "ms",
         "host-wall"},
        {"replay.coverage_pct", l.coverage_pct, "%", "host-wall"},
        {sl + "queue_wait_p50_ms", l.queue_wait_p50_ms, "ms", "host-wall"},
        {sl + "queue_wait_p99_ms", l.queue_wait_p99_ms, "ms", "host-wall"},
        {sl + "service_p50_ms", l.service_p50_ms, "ms", "host-wall"},
        {sl + "batch_size_mean", l.batch_size_mean, "count", "host"},
        {sl + "rejected", l.rejected, "count", "host"},
        {sl + "failed", l.serving_failed, "count", "host"},
        {"tuner.tune_ms", l.tune_ms, "ms", "host-wall"},
        {"tuner.evaluated", l.tune_evaluated, "count", "host"},
        {"backend.analytical.cost_ms", l.analytical_cost_ms, "ms",
         "host-wall"},
        {"backend.transaction.cost_ms", l.transaction_cost_ms, "ms",
         "host-wall"},
        {"runtime.engine.estimate_warm_ms", l.estimate_warm_ms, "ms",
         "host-wall"},
        {"trace.overhead_pct", l.trace_overhead_pct, "%", "host-wall"},
    };
}

void
checkReplayOutputs(RunResult &result, std::size_t replays,
                   std::size_t matched)
{
    result.attempted += replays;
    result.failed += replays - matched;
    if (matched != replays)
        result.fail(std::to_string(replays - matched) + " of " +
                    std::to_string(replays) +
                    " replayed outputs differ from forward()");
}

void
checkCoverage(RunResult &result, double coverage_pct)
{
    if (std::fabs(coverage_pct - 100.0) <= kCoverageTolerancePct)
        return;
    std::ostringstream msg;
    msg << "replay covers " << coverage_pct
        << "% of forward_ms, outside 100 +- " << kCoverageTolerancePct;
    result.fail(msg.str());
}

double
ModeledPair::errPct() const
{
    return 100.0 * std::fabs(analytical_s - transaction_s) / transaction_s;
}

ModeledPair
priceOnBothBackends(const TransformerConfig &model,
                    const PimPlatformConfig &platform)
{
    const LutNnParams params{4, 16};
    const PimDlEngine analytical(platform, xeon4210Dual(),
                                 TimingBackendKind::Analytical);
    const PimDlEngine transaction(platform, xeon4210Dual(),
                                  TimingBackendKind::Transaction);
    ModeledPair pair;
    pair.analytical_s = analytical.estimatePimDl(model, params).total_s;
    pair.transaction_s = transaction.estimatePimDl(model, params).total_s;
    return pair;
}

void
checkPinned(RunResult &result, const std::string &what, double got,
            double want)
{
    if (std::isfinite(got) && std::fabs(got - want) <= 1e-12 * std::fabs(want))
        return;
    std::ostringstream msg;
    msg << std::setprecision(17) << what << ": got " << got
        << ", pinned " << want;
    result.fail(msg.str());
}

FunctionalTransformerConfig
bertBaseLayer()
{
    FunctionalTransformerConfig cfg;
    cfg.hidden = 768;
    cfg.ffn = 3072;
    cfg.layers = 1;
    cfg.heads = 12;
    cfg.subvec_len = 4;
    cfg.centroids = 16;
    cfg.seed = kModelSeed;
    return cfg;
}

Tensor
calibrationBatch(std::size_t rows, std::size_t hidden)
{
    return seededTensor(rows, hidden, kModelSeed + 1);
}

TransformerConfig
bertBaseLayerShape(std::size_t batch, std::size_t seq)
{
    TransformerConfig model = bertBase();
    model.name = "BERT-base-1layer";
    model.layers = 1;
    model.batch = batch;
    model.seq_len = seq;
    return model;
}

Tensor
seededTensor(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(rows, cols);
    t.fillGaussian(rng);
    return t;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(a.data(), a.data() + a.size(), b.data(),
                      [](float x, float y) {
                          return std::memcmp(&x, &y, sizeof x) == 0;
                      });
}

} // namespace perfbench
