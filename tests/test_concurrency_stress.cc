/**
 * @file
 * Concurrency stress tests targeting the mutex-guarded state the
 * thread-safety annotations (common/thread_annotations.h) protect: the
 * tune memo, the metrics registry, the modeled executor's latency memo,
 * and the fault injector's forced-failure set. Functionally they assert
 * determinism and cache coherence; under the ThreadSanitizer build
 * (PIMDL_TSAN, CI "tsan" job) they double as race detectors, so every
 * scenario drives real cross-thread contention with std::thread —
 * parallelFor alone degrades to one worker on single-core runners.
 */

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/mpmc_queue.h"
#include "common/parallel.h"
#include "lutnn/converter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/lut_executor.h"
#include "runtime/serving_live.h"
#include "tuner/tune_memo.h"

namespace pimdl {
namespace {

constexpr std::size_t kThreads = 8;

/** Runs @p body on kThreads concurrent threads and joins them. */
void
onThreads(const std::function<void(std::size_t)> &body)
{
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t]() { body(t); });
    for (std::thread &t : pool)
        t.join();
}

TEST(ConcurrencyStress, TuneMemoStormDeduplicatesAndAgrees)
{
    const PimPlatformConfig platform = upmemPlatform();
    const AutoTuner tuner(platform);
    const TuneMemo memo(tuner);

    LutWorkloadShape shapes[3];
    for (std::size_t s = 0; s < 3; ++s) {
        shapes[s].n = 64 << s;
        shapes[s].cb = 32;
        shapes[s].ct = 16;
        shapes[s].f = 128;
    }

    onThreads([&](std::size_t t) {
        for (std::size_t i = 0; i < 12; ++i) {
            const AutoTuneResult &r = memo.tune(shapes[(t + i) % 3]);
            ASSERT_TRUE(r.found);
        }
    });

    EXPECT_EQ(memo.size(), 3u);
    // Memoized references are stable: re-tuning returns the object
    // the storm populated, not a fresh search result.
    for (const LutWorkloadShape &shape : shapes)
        EXPECT_EQ(&memo.tune(shape), &memo.tune(shape));
}

TEST(ConcurrencyStress, MetricsRegistryHammering)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &counter = reg.counter("stress.counter");
    obs::Histogram &hist = reg.histogram("stress.histogram");
    const std::uint64_t c0 = counter.value();
    const std::uint64_t h0 = hist.count();

    // Writers hammer cached references while readers concurrently
    // create metrics and take snapshots through the registry lock.
    onThreads([&](std::size_t t) {
        for (std::size_t i = 0; i < 200; ++i) {
            counter.add();
            hist.record(static_cast<double>(i));
            reg.gauge("stress.gauge." + std::to_string(t)).set(1.0);
            if (i % 50 == 0) {
                (void)reg.counters();
                (void)hist.snapshot();
            }
        }
        // parallelFor nests its own metrics updates underneath.
        parallelFor(32, [&](std::size_t) { counter.add(); });
    });

    EXPECT_EQ(counter.value(), c0 + kThreads * (200 + 32));
    EXPECT_EQ(hist.count(), h0 + kThreads * 200);
    EXPECT_FALSE(reg.toJson().empty());
}

TEST(ConcurrencyStress, TraceRecorderAndLoggerFromManyThreads)
{
    onThreads([&](std::size_t t) {
        for (std::size_t i = 0; i < 64; ++i) {
            obs::TraceSpan span("stress.span");
            span.attr("thread", static_cast<std::uint64_t>(t));
            logMessage(LogLevel::Debug,
                       "stress " + std::to_string(t));
        }
    });
    SUCCEED();
}

TEST(ConcurrencyStress, ServingLatencyCacheUnderConcurrentSweeps)
{
    PimDlEngine engine(upmemPlatform(), xeon4210Dual());
    const TransformerConfig model =
        customTransformer("stress-serve", 128, 1, 32, 2);
    ReplayClock clock;
    const ModeledBatchExecutor executor(engine, model, LutNnParams{4, 16},
                                        SchedulePolicy::Sequential, clock);

    std::vector<double> latency(kThreads, 0.0);
    onThreads([&](std::size_t t) {
        for (std::size_t i = 0; i < 6; ++i) {
            const std::size_t batch = 1 + (t + i) % 4;
            const double l = executor.batchLatency(batch);
            ASSERT_GT(l, 0.0);
            if (batch == 1)
                latency[t] = l;
        }
    });

    // Every thread observed the same memoized latency for batch 1.
    const double expected = executor.batchLatency(1);
    for (double l : latency)
        EXPECT_DOUBLE_EQ(l, expected);
}

TEST(ConcurrencyStress, FaultInjectorDrainRacesLivenessQueries)
{
    FaultConfig config;
    config.seed = 77;
    FaultInjector faults(config);

    // Operator drain (forceFailPe) races the hot liveness queries the
    // simulated PEs issue — the exact pair forced_mu_ guards.
    onThreads([&](std::size_t t) {
        for (std::size_t i = 0; i < 128; ++i) {
            if (t % 2 == 0)
                faults.forceFailPe(t * 1000 + i);
            else
                (void)faults.peHardFailed(i % 64);
        }
    });

    for (std::size_t t = 0; t < kThreads; t += 2)
        EXPECT_TRUE(faults.peHardFailed(t * 1000));
}

TEST(ConcurrencyStress, FaultedExecutorRunsUnderParallelFor)
{
    Rng rng(60);
    Tensor w(16, 24);
    w.fillGaussian(rng);
    Tensor calib(128, 16);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = 2;
    options.centroids = 8;
    options.quantize_int8 = true;
    const LutLayer layer = convertLinearLayer(w, {}, calib, options);

    Tensor input(32, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);

    LutMapping mapping;
    mapping.ns_tile = 8;
    mapping.fs_tile = 12;
    mapping.nm_tile = 8;
    mapping.fm_tile = 4;
    mapping.cbm_tile = 8;
    mapping.scheme = LutLoadScheme::FineGrain;

    FaultConfig config;
    config.seed = 61;
    config.pe_transient_rate = 0.2;
    config.pe_hard_fail_rate = 0.1;
    FaultInjector faults(config);
    const Tensor reference = layer.lookup(idx);

    // The executor's internal parallelFor runs the resilient ladder
    // across simulated PEs; concurrent outer calls stress the shared
    // injector, metrics, and trace state at once.
    onThreads([&](std::size_t) {
        const DistributedLutResult result = runDistributedLut(
            upmemPlatform(), layer, idx, mapping,
            /*quantized=*/false, &faults);
        ASSERT_FALSE(result.fault.host_fallback);
        EXPECT_LT(maxAbsDiff(result.output, reference), 1e-4f);
    });
}

TEST(ConcurrencyStress, MpmcCloseRacesPushAndPop)
{
    // The drain path closes the request queue while submitters
    // and workers are mid push/pop; the queue contract is that no
    // accepted item is ever lost to the close. 4 pushers x 4 poppers
    // race a closer and the accounting must balance exactly.
    constexpr std::size_t kPushers = 4;
    constexpr std::size_t kPoppers = 4;
    constexpr std::size_t kPerPusher = 256;
    for (int iteration = 0; iteration < 8; ++iteration) {
        BoundedMpmcQueue<std::size_t> queue(16);
        std::atomic<std::size_t> pushed{0};
        std::atomic<std::size_t> popped{0};
        std::atomic<bool> closed{false};

        std::vector<std::thread> pool;
        for (std::size_t p = 0; p < kPushers; ++p) {
            pool.emplace_back([&]() {
                for (std::size_t i = 0; i < kPerPusher; ++i) {
                    if (queue.tryPush(i))
                        pushed.fetch_add(1, std::memory_order_relaxed);
                    else if (queue.closed())
                        return; // producers stop at close
                }
            });
        }
        for (std::size_t c = 0; c < kPoppers; ++c) {
            pool.emplace_back([&]() {
                std::size_t item = 0;
                // pop() returns false only once closed *and* empty,
                // so this drains everything accepted before close.
                while (queue.pop(item))
                    popped.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.emplace_back([&]() {
            // Close mid-flight: yield a few times so pushes and pops
            // are in progress on most schedules.
            for (int y = 0; y < 50; ++y)
                std::this_thread::yield();
            queue.close();
            closed.store(true, std::memory_order_release);
        });
        for (std::thread &t : pool)
            t.join();

        EXPECT_TRUE(closed.load());
        EXPECT_EQ(popped.load(), pushed.load())
            << "every accepted item must be drained, none duplicated";
        EXPECT_TRUE(queue.empty());
        std::size_t leftover = 0;
        EXPECT_FALSE(queue.pop(leftover));
    }
}

} // namespace
} // namespace pimdl
