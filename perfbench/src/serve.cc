/**
 * @file
 * The `serve` workload: one generator thread sends an open-loop stream
 * of 16-token requests at a fixed rate into LiveServingRuntime, which
 * batches them onto one worker running the HostLut functional path.
 */

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "host_probe.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "pinned.h"
#include "runtime/serving_live.h"
#include "workload.h"

namespace perfbench {

using namespace pimdl;

namespace {

constexpr std::size_t kSeq = 16;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kCalibrationRows = 128;
constexpr std::size_t kPayloads = 64;
constexpr std::size_t kCheckRequests = 32;
constexpr std::size_t kReplayRequests = 60;
/** Offered load: about a third of the batch-1 capacity of a 4-vCPU
 * host (~9 ms per request), and 1020 requests in a 30 s run, enough
 * for a p99 with ten samples beyond it. */
constexpr double kRateRps = 34.0;
/** Per-request latency limit: about 5x the unloaded batch-1 service
 * time. */
constexpr double kSloS = 0.040;
/** Nominal seconds of schedule between two speed-probe passes. */
constexpr double kSegmentS = 1.0;
/** Bounds on the speed factor that stretches a segment's schedule. */
constexpr double kMinFactor = 0.67;
constexpr double kMaxFactor = 1.5;

LiveServingConfig
servingConfig(bool collect_outputs)
{
    LiveServingConfig cfg;
    cfg.max_batch = kMaxBatch;
    cfg.workers = 1;
    cfg.deadline_s = 0.0;
    // No pow2 padding: host LUT cost grows with the padded rows, and
    // padding a burst of 3 to 4 only deepens the queue behind it.
    cfg.pow2_buckets = false;
    cfg.collect_outputs = collect_outputs;
    return cfg;
}

/**
 * The serving executor, recording for every batch the wall time inside
 * execute() that the process did not spend on a CPU. With the whole
 * process pinned to one vCPU (runServe), that is time the hypervisor
 * held the vCPU (steal) or another of the process's threads ran, both
 * mostly benchmark noise: a 20 ms steal in a 10 ms batch triples the
 * latency of every request behind it, so where steal falls would
 * decide a run's p99. The batch's work itself, whatever threads it
 * runs on, is process CPU time and stays in.
 */
class StallRecorder final : public BatchExecutor
{
  public:
    explicit StallRecorder(BatchExecutor &inner) : inner_(inner) {}

    Tensor
    execute(const Tensor &tokens, std::size_t seq_len, bool degraded) override
    {
        const double w0 = wallSeconds();
        const double c0 = processCpuSeconds();
        Tensor out = inner_.execute(tokens, seq_len, degraded);
        const double w1 = wallSeconds();
        const double c1 = processCpuSeconds();
        MutexLock guard(mu_);
        batches_.push_back({w0, w1, std::max(0.0, (w1 - w0) - (c1 - c0))});
        return out;
    }

    /** Every batch recorded so far, oldest first; clears the record. */
    std::vector<BatchStall>
    take()
    {
        MutexLock guard(mu_);
        return std::exchange(batches_, {});
    }

  private:
    BatchExecutor &inner_;
    Mutex mu_{"perfbench.stall_recorder"};
    std::vector<BatchStall> batches_ PIMDL_GUARDED_BY(mu_);
};

/** Declared in dependency order: the runtime drains first. */
struct Deployment
{
    std::unique_ptr<FunctionalTransformer> model;
    std::unique_ptr<FunctionalBatchExecutor> executor;
    std::unique_ptr<StallRecorder> recorder;
    std::unique_ptr<LiveServingRuntime> runtime;
};

Deployment
deploy()
{
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
        obs::TraceSpan span("setup.runtime_start");
        d.executor = std::make_unique<FunctionalBatchExecutor>(
            *d.model, LinearBackendKind::HostLut);
        d.recorder = std::make_unique<StallRecorder>(*d.executor);
        d.runtime = std::make_unique<LiveServingRuntime>(servingConfig(false),
                                                         *d.recorder);
    }
    return d;
}

/** Bit-checks sampled requests served in batches against solo
 * forwards, on a runtime that keeps outputs. */
void
checkOutputs(const Deployment &d, const std::vector<Tensor> &payloads,
             RunResult &result)
{
    LiveServingRuntime runtime(servingConfig(true), *d.executor);
    std::vector<std::optional<std::future<LiveRequestResult>>> futures;
    for (std::size_t i = 0; i < kCheckRequests; ++i)
        futures.push_back(runtime.submit(payloads[i % payloads.size()]));
    for (std::size_t i = 0; i < kCheckRequests; ++i) {
        ++result.attempted;
        if (!futures[i]) {
            ++result.failed;
            result.fail("check request rejected at admission");
            continue;
        }
        const LiveRequestResult r = futures[i]->get();
        const Tensor solo = d.model->forward(payloads[i % payloads.size()],
                                             kSeq, LinearBackendKind::HostLut);
        if (r.status != LiveRequestStatus::Completed ||
            !bitIdentical(r.output, solo)) {
            ++result.failed;
            result.fail("check request " + std::to_string(i) +
                        ": batched output differs from a solo forward");
        }
    }
}

/** Outcome of the open-loop phase. */
struct OpenLoopRun
{
    OpenLoopTimes times;
    /** Indexed like times; nullopt = rejected at admission. */
    std::vector<std::optional<LiveRequestResult>> results;
    /** Wall and CPU speed factor of each request's segment (1 without
     * a speed scale). */
    std::vector<double> wall_factor;
    std::vector<double> cpu_factor;
    /** Wall and process CPU of the segments, probe passes left out;
     * raw and scaled by the segment's factor. */
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double scaled_cpu_s = 0.0;
    double steal_pct = 0.0;
    double busy_pct = 0.0;
};

/**
 * The open loop, cut into segments of kSegmentS nominal seconds. With
 * a @p scale, a probe pass runs in the idle gap after each segment
 * (once its requests are done), and each segment's schedule is
 * stretched by the inverse of the current speed factor: a host running
 * at half speed gets the requests at half the rate, so the server runs
 * at the same share of its capacity and queues the same way whatever
 * the co-tenants do. The seed fixes the nominal schedule.
 */
OpenLoopRun
runOpenLoopPhase(LiveServingRuntime &runtime,
                 const std::vector<Tensor> &payloads, std::uint64_t seed,
                 double seconds, SpeedScale *scale)
{
    const std::vector<double> offsets =
        openLoopSchedule(kRateRps, seconds, seed * 7919 + 3);
    std::vector<std::optional<std::future<LiveRequestResult>>> futures(
        offsets.size());
    OpenLoopRun run;
    run.results.resize(offsets.size());
    run.wall_factor.assign(offsets.size(), 1.0);
    run.cpu_factor.assign(offsets.size(), 1.0);
    std::vector<std::size_t> segment_pass;
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    std::vector<double> segment_cpu;
    if (scale)
        scale->sample();
    const CpuJiffies jiffies0 = readCpuJiffies();
    for (std::size_t begin = 0; begin < offsets.size();) {
        const double start = kSegmentS * static_cast<double>(segments.size());
        std::size_t end = begin;
        while (end < offsets.size() && offsets[end] < start + kSegmentS)
            ++end;
        const std::size_t pass = scale ? scale->passes() - 1 : 0;
        const double stretch =
            scale ? 1.0 / std::clamp(scale->wallFactor(
                                         pass >= 2 ? pass - 2 : 0, pass),
                                     kMinFactor, kMaxFactor)
                  : 1.0;
        std::vector<double> local;
        for (std::size_t i = begin; i < end; ++i)
            local.push_back((offsets[i] - start) * stretch);

        const double w0 = wallSeconds();
        const double c0 = processCpuSeconds();
        const OpenLoopTimes times =
            runOpenLoop(local, SteadyClock::instance(), [&](std::size_t i) {
                futures[begin + i] =
                    runtime.submit(payloads[(begin + i) % payloads.size()]);
            });
        for (std::size_t i = begin; i < end; ++i)
            if (futures[i])
                run.results[i] = futures[i]->get();
        run.wall_s += wallSeconds() - w0;
        segment_cpu.push_back(processCpuSeconds() - c0);
        run.times.due_s.insert(run.times.due_s.end(), times.due_s.begin(),
                               times.due_s.end());
        run.times.sent_s.insert(run.times.sent_s.end(), times.sent_s.begin(),
                                times.sent_s.end());
        segments.emplace_back(begin, end);
        segment_pass.push_back(pass);
        if (scale)
            scale->sample();
        begin = end;
    }
    run.steal_pct = stealPercent(jiffies0, readCpuJiffies());
    for (std::size_t j = 0; j < segments.size(); ++j) {
        const double wf = scale ? scale->wallFactorAt(segment_pass[j]) : 1.0;
        const double cf = scale ? scale->cpuFactorAt(segment_pass[j]) : 1.0;
        for (std::size_t i = segments[j].first; i < segments[j].second; ++i) {
            run.wall_factor[i] = wf;
            run.cpu_factor[i] = cf;
        }
        run.cpu_s += segment_cpu[j];
        run.scaled_cpu_s += segment_cpu[j] * cf;
    }
    run.busy_pct = 100.0 * run.cpu_s /
                   (run.wall_s *
                    static_cast<double>(pimdl::parallelWorkerCount()));
    return run;
}

/** Tallies the phase's requests into @p result; returns the due-time
 * done stamps (-1 for requests that did not complete). */
std::vector<double>
tally(const OpenLoopRun &run, RunResult &result, std::size_t &completed)
{
    std::vector<double> done(run.results.size(), -1.0);
    completed = 0;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        ++result.attempted;
        const auto &r = run.results[i];
        if (r && r->status == LiveRequestStatus::Completed) {
            done[i] = r->done_s;
            ++completed;
        } else {
            ++result.failed;
        }
    }
    if (completed != run.results.size())
        result.fail(std::to_string(run.results.size() - completed) +
                    " requests were rejected or failed");
    return done;
}

ModeledPair
serveModeled(RunResult &result)
{
    const ModeledPair pair =
        priceOnBothBackends(bertBaseLayerShape(1, kSeq), upmemPlatform());
    checkPinned(result, "serve analytical seconds", pair.analytical_s,
                pinned::kServeAnalyticalS);
    checkPinned(result, "serve transaction seconds", pair.transaction_s,
                pinned::kServeTransactionS);
    return pair;
}

std::vector<Tensor>
makePayloads(std::uint64_t seed, std::size_t hidden)
{
    std::vector<Tensor> payloads;
    for (std::size_t i = 0; i < kPayloads; ++i)
        payloads.push_back(seededTensor(kSeq, hidden, seed * 1000 + 31 + i));
    return payloads;
}

Deployment
setupAndCheck(const RunOptions &options, std::vector<double> &setup_samples,
              SpeedScale *scale, std::vector<Tensor> &payloads,
              RunResult &result)
{
    Deployment d = repeatedSetup(setup_samples, scale,
                                 [] { return deploy(); });
    payloads = makePayloads(options.seed, d.model->config().hidden);
    obs::TraceSpan span("check.batched_vs_solo");
    checkOutputs(d, payloads, result);
    return d;
}

RunResult
timedRun(const RunOptions &options, bool pinned)
{
    RunResult result;
    EndToEnd e2e;
    // One worker thread serves every batch: a one-thread probe.
    SpeedProbe probe;
    SpeedScale scale(probe, kSerialShape);
    e2e.own_rss_mb = probe.tableMb();
    std::vector<Tensor> payloads;
    Deployment d = setupAndCheck(options, e2e.setup_samples_s, &scale,
                                 payloads, result);

    const OpenLoopRun run = runOpenLoopPhase(*d.runtime, payloads,
                                             options.seed, options.seconds,
                                             &scale);
    std::size_t completed = 0;
    const std::vector<double> done = tally(run, result, completed);
    std::vector<double> raw = dueTimeLatencies(run.times.due_s, done);
    // Only a process on one vCPU can tell stalls from parallel work.
    const std::vector<BatchStall> stalls =
        pinned ? d.recorder->take() : std::vector<BatchStall>{};
    std::size_t met = 0, k = 0;
    std::map<std::uint64_t, double> batch_busy_s;
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i] < 0.0)
            continue;
        const LiveRequestResult &r = *run.results[i];
        const double stall = stallWithin(stalls, run.times.due_s[i], done[i]);
        const double latency = (raw[k++] - stall) * run.wall_factor[i];
        e2e.latencies_s.push_back(latency);
        met += latency <= kSloS;
        batch_busy_s[r.batch_id] =
            (r.service_s - stallWithin(stalls, done[i] - r.service_s,
                                       done[i])) *
            run.wall_factor[i];
    }
    double stall_s = 0.0, batch_s = 0.0;
    for (const BatchStall &b : stalls) {
        stall_s += b.stall_s;
        batch_s += b.end_s - b.start_s;
    }
    // Requests served per second the worker was busy: the rate the
    // server could sustain with this batch mix, which the fixed
    // offered rate alone would not show.
    double busy_s = 0.0;
    for (const auto &[batch, seconds] : batch_busy_s)
        busy_s += seconds;
    e2e.throughput = busy_s > 0.0 ? static_cast<double>(completed) / busy_s
                                  : 0.0;
    e2e.slo_met_pct = 100.0 * static_cast<double>(met) /
                      static_cast<double>(run.results.size());
    e2e.cpu_ms_per_op = completed > 0 ? run.scaled_cpu_s * 1e3 /
                                            static_cast<double>(completed)
                                      : 0.0;
    const ModeledPair pair = serveModeled(result);
    e2e.modeled_ms = pair.analytical_s * 1e3;
    e2e.xval_err_pct = pair.errPct();

    result.diagnostics = {
        {"host.steal_pct", run.steal_pct, "%", "host"},
        {"host.load_1m", loadAverage1m(), "count", "host"},
        {"host.speed_wall", scale.wallFactor(), "x", "host-wall"},
        {"host.speed_cpu", scale.cpuFactor(), "x", "host-cpu"},
        {"host.stall_pct", batch_s > 0.0 ? 100.0 * stall_s / batch_s : 0.0,
         "%", "host-wall"},
        {"raw.latency_p50_ms", raw.empty() ? 0.0 : median(raw) * 1e3, "ms",
         "host-wall"},
        {"raw.latency_p99_ms",
         raw.empty() ? 0.0 : tailPercentile(raw).value * 1e3, "ms",
         "host-wall"},
        {"raw.offered_rps",
         static_cast<double>(run.results.size()) / run.wall_s, "1/s",
         "host-wall"},
        {"raw.cpu_ms_per_op",
         completed > 0 ? run.cpu_s * 1e3 / static_cast<double>(completed)
                       : 0.0,
         "ms", "host-cpu"},
        {"common.parallel.busy_pct", run.busy_pct, "%", "host-cpu"},
        {"loadgen.lag_p99_ms", tailPercentile(run.times.lags()).value * 1e3,
         "ms", "host-wall"},
    };
    reportEndToEnd(e2e, result);
    return result;
}

/** Per-request spans rebuilt from the runtime's timestamps after the
 * phase, so recording adds nothing while requests are in flight. */
void
recordRequestSpans(const OpenLoopRun &run)
{
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const auto &r = run.results[i];
        if (!r || r->status != LiveRequestStatus::Completed)
            continue;
        const std::uint64_t track = i % 8;
        const double request = static_cast<double>(i);
        recordHostSpan(
            "request", track, run.times.due_s[i], r->done_s,
            {{"request", request},
             {"batch_size", static_cast<double>(r->batch_size)},
             {"send_lag_ms",
              (run.times.sent_s[i] - run.times.due_s[i]) * 1e3}});
        recordHostSpan("runtime.serving_live.queue_wait", track, r->enqueue_s,
                       r->enqueue_s + r->queue_wait_s, {{"request", request}});
        recordHostSpan("runtime.serving_live.service", track,
                       r->done_s - r->service_s, r->done_s,
                       {{"request", request}});
    }
}

RunResult
tracedRun(const RunOptions &options)
{
    RunResult result;
    std::vector<double> setup_samples;
    std::vector<Tensor> payloads;
    Deployment d =
        setupAndCheck(options, setup_samples, nullptr, payloads, result);

    // The open loop runs untraced, as in the timed run; its spans are
    // rebuilt from the runtime's timestamps afterwards.
    LayerReport layers;
    obs::Tracer::instance().setEnabled(false);
    const OpenLoopRun run = runOpenLoopPhase(*d.runtime, payloads,
                                             options.seed, options.seconds,
                                             nullptr);
    obs::Tracer::instance().setEnabled(true);
    std::size_t completed = 0;
    (void)tally(run, result, completed);
    recordRequestSpans(run);
    layers.busy_pct = run.busy_pct;

    std::vector<double> queue_wait, service;
    std::map<std::uint64_t, std::size_t> batch_sizes;
    for (const auto &r : run.results) {
        if (!r) {
            layers.rejected += 1.0;
            continue;
        }
        if (r->status != LiveRequestStatus::Completed) {
            layers.serving_failed += 1.0;
            continue;
        }
        queue_wait.push_back(r->queue_wait_s);
        service.push_back(r->service_s);
        batch_sizes[r->batch_id] = r->batch_size;
    }
    if (!queue_wait.empty()) {
        layers.queue_wait_p50_ms = median(queue_wait) * 1e3;
        layers.queue_wait_p99_ms = tailPercentile(queue_wait).value * 1e3;
        layers.service_p50_ms = median(service) * 1e3;
        double sum = 0.0;
        for (const auto &[id, size] : batch_sizes)
            sum += static_cast<double>(size);
        layers.batch_size_mean = sum / static_cast<double>(batch_sizes.size());
    }

    // Solo requests after the open loop: untraced, traced, replayed.
    ReplayModel replay;
    {
        obs::TraceSpan span("replay.setup");
        replay = buildReplayModel(
            d.model->config(),
            calibrationBatch(kCalibrationRows, d.model->config().hidden),
            kSeq, nullptr, kSeq, layers.convert_ms);
    }
    std::vector<double> untraced_ms, traced_ms, replay_ms, fused_ccs;
    std::vector<LayerTimes> replays;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < kReplayRequests; ++i) {
        const Tensor &in = payloads[i % payloads.size()];
        obs::Tracer::instance().setEnabled(false);
        double t0 = wallSeconds();
        (void)d.model->forward(in, kSeq, LinearBackendKind::HostLut);
        untraced_ms.push_back((wallSeconds() - t0) * 1e3);

        // Replay first on odd requests, so drift does not bias coverage.
        obs::Tracer::instance().setEnabled(true);
        obs::TraceSpan iteration("solo_request");
        auto replay_once = [&] {
            replays.push_back(replayForward(replay, in, kSeq,
                                            LinearBackendKind::HostLut, {}));
            replay_ms.push_back(replays.back().sumMs());
            fused_ccs.push_back(replays.back().fused_ccs_ms);
        };
        if (i % 2 == 1)
            replay_once();
        Tensor out;
        {
            obs::TraceSpan span("runtime.functional_transformer.forward");
            t0 = wallSeconds();
            out = d.model->forward(in, kSeq, LinearBackendKind::HostLut);
            traced_ms.push_back((wallSeconds() - t0) * 1e3);
        }
        if (i % 2 == 0)
            replay_once();
        matched += bitIdentical(replays.back().output, out);
    }
    layers.addReplays(replays);
    layers.ccs_ms = median(fused_ccs);
    layers.forward_ms = median(traced_ms);
    layers.coverage_pct = 100.0 * median(replay_ms) / median(traced_ms);
    checkReplayOutputs(result, replays.size(), matched);
    layers.trace_overhead_pct =
        100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);
    {
        obs::TraceSpan span("replay.pricing");
        layers.addPricings(
            {replayPricing(bertBaseLayerShape(1, kSeq), upmemPlatform())});
    }
    (void)serveModeled(result);

    reportLayers(layers, result);
    result.diagnostics = {
        {"setup_s", median(setup_samples), "s", "host-wall"},
        {"host.steal_pct", run.steal_pct, "%", "host"},
        {"loadgen.lag_p99_ms", tailPercentile(run.times.lags()).value * 1e3,
         "ms", "host-wall"},
        {"replay.output_match_pct",
         100.0 * static_cast<double>(matched) /
             static_cast<double>(kReplayRequests),
         "%", "host"},
    };
    return result;
}

} // namespace

RunResult
runServe(const RunOptions &options)
{
    // A one-worker server: the whole process, its serving worker and
    // the speed probe, stays on one virtual CPU, so the probe measures
    // the CPU the requests are served on. Virtual CPUs of a shared host
    // run at different speeds at the same moment.
    const int cpu = pinToCurrentCpu();
    RunResult result =
        options.trace ? tracedRun(options) : timedRun(options, cpu >= 0);
    result.diagnostics.push_back(
        {"host.pinned_cpu", static_cast<double>(cpu), "id", "host"});
    return result;
}

} // namespace perfbench
