/**
 * @file
 * Virtual-time replay tests: LiveServingRuntime::replay driving the
 * runtime's own batching, fault ladder and stats on a ReplayClock, with
 * batches priced by the PIM-DL engine (ModeledBatchExecutor).
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/chaos.h"
#include "runtime/serving_live.h"

namespace pimdl {
namespace {

/** Every request admitted reaches exactly one outcome. */
void
expectConserved(const LiveServingStats &s)
{
    EXPECT_EQ(s.completed + s.timed_out + s.shed + s.failed_requests,
              s.submitted - s.rejected);
}

/** Bitwise equality of every LiveServingStats field. */
void
expectIdentical(const LiveServingStats &a, const LiveServingStats &b)
{
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.overload_rejected, b.overload_rejected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.shed_admission, b.shed_admission);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.batch_retries, b.batch_retries);
    EXPECT_EQ(a.failed_batches, b.failed_batches);
    EXPECT_EQ(a.degraded_batches, b.degraded_batches);
    EXPECT_EQ(a.bisections, b.bisections);
    EXPECT_EQ(a.poison_isolated, b.poison_isolated);
    EXPECT_EQ(a.breaker_opens, b.breaker_opens);
    // EXPECT_EQ on doubles: bit-identical, not merely close.
    EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
    EXPECT_EQ(a.busy_s, b.busy_s);
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
    EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_EQ(a.inflight_limit, b.inflight_limit);
    EXPECT_EQ(a.availability, b.availability);
}

class ServingTest : public ::testing::Test
{
  protected:
    ServingTest()
        : engine_(upmemPlatform(), xeon4210Dual()),
          model_(customTransformer("serve-test", 256, 2, 128, 1))
    {}

    /** Replays @p rate Poisson arrivals over @p horizon_s (seed 1)
     * through @p cfg, every batch priced under @p policy. */
    LiveReplay
    replay(const LiveServingConfig &cfg, double rate, double horizon_s,
           SchedulePolicy policy = SchedulePolicy::Sequential) const
    {
        ReplayClock clock;
        ModeledBatchExecutor executor(engine_, model_, LutNnParams{4, 16},
                                      policy, clock);
        return LiveServingRuntime::replay(
            cfg, executor, clock, poissonArrivals(rate, horizon_s, 1));
    }

    static LiveServingConfig
    config(std::size_t max_batch, double max_wait_s)
    {
        LiveServingConfig cfg;
        cfg.max_batch = max_batch;
        cfg.max_wait_s = max_wait_s;
        cfg.collect_outputs = false;
        return cfg;
    }

    PimDlEngine engine_;
    TransformerConfig model_;
};

TEST_F(ServingTest, ConservesRequests)
{
    const LiveReplay run = replay(config(8, 0.2), 20.0, 60.0);
    const LiveServingStats &s = run.stats;
    EXPECT_GT(s.submitted, 0u);
    EXPECT_GT(s.batches, 0u);
    EXPECT_GT(run.throughputRps(), 0.0);
    EXPECT_LE(s.mean_batch_size, 8.0);
    EXPECT_GE(s.mean_batch_size, 1.0);
    expectConserved(s);
    ASSERT_EQ(run.requests.size(), s.submitted);
    std::size_t resolved = 0;
    for (const auto &r : run.requests)
        resolved += r.has_value() ? 1 : 0;
    EXPECT_EQ(resolved, s.submitted - s.rejected);
}

TEST_F(ServingTest, DeterministicForSeed)
{
    const LiveReplay a = replay(config(8, 0.2), 10.0, 30.0);
    const LiveReplay b = replay(config(8, 0.2), 10.0, 30.0);
    expectIdentical(a.stats, b.stats);
    EXPECT_EQ(a.span_s, b.span_s);
}

TEST_F(ServingTest, PercentilesAreOrdered)
{
    const LiveReplay run = replay(config(16, 0.5), 30.0, 60.0);
    const LiveServingStats &s = run.stats;
    EXPECT_LE(s.p50_latency_s, s.p95_latency_s);
    EXPECT_LE(s.p95_latency_s, s.p99_latency_s);
    EXPECT_GT(s.mean_latency_s, 0.0);
    EXPECT_GE(run.utilization(), 0.0);
    EXPECT_LE(run.utilization(), 1.0 + 1e-9);
}

TEST_F(ServingTest, HigherLoadRaisesBatchSizes)
{
    const LiveReplay low = replay(config(32, 0.05), 2.0, 60.0);
    const LiveReplay high = replay(config(32, 0.05), 200.0, 60.0);
    EXPECT_GT(high.stats.mean_batch_size, low.stats.mean_batch_size);
}

TEST_F(ServingTest, LongerWaitDeadlineGrowsBatches)
{
    const LiveReplay eager = replay(config(32, 0.01), 20.0, 60.0);
    const LiveReplay patient = replay(config(32, 1.0), 20.0, 60.0);
    EXPECT_GE(patient.stats.mean_batch_size, eager.stats.mean_batch_size);
}

TEST_F(ServingTest, BatchLatencyMemoizedAndMonotone)
{
    ReplayClock clock;
    const ModeledBatchExecutor executor(engine_, model_,
                                        LutNnParams{4, 16},
                                        SchedulePolicy::Sequential, clock);
    const double b1 = executor.batchLatency(1);
    const double b8 = executor.batchLatency(8);
    EXPECT_GT(b8, b1);
    // Second query hits the memo (same value).
    EXPECT_EQ(executor.batchLatency(8), b8);
}

TEST_F(ServingTest, BatchLatencyKeyedOnSchedulerPolicy)
{
    ReplayClock clock;
    const auto price = [&](SchedulePolicy policy) {
        const ModeledBatchExecutor executor(engine_, model_,
                                            LutNnParams{4, 16}, policy,
                                            clock);
        const double first = executor.batchLatency(4);
        // A repeat query returns the memoized value bit-for-bit.
        EXPECT_EQ(executor.batchLatency(4), first);
        return first;
    };
    const double seq = price(SchedulePolicy::Sequential);
    const double pipe = price(SchedulePolicy::Pipelined);
    const double over = price(SchedulePolicy::Overlap);
    EXPECT_LT(pipe, seq);
    EXPECT_LE(over, seq + 1e-12);
}

TEST_F(ServingTest, ModeledExecutorSleepsItsPrice)
{
    ReplayClock clock;
    ModeledBatchExecutor executor(engine_, model_, LutNnParams{4, 16},
                                  SchedulePolicy::Sequential, clock);
    const double b4 = executor.batchLatency(4);
    const Tensor tokens(4 * 2, 3);
    const double t0 = clock.now();
    EXPECT_EQ(executor.execute(tokens, 2, false).rows(), tokens.rows());
    EXPECT_NEAR(clock.now() - t0, b4, 1e-9);
    const double t1 = clock.now();
    (void)executor.execute(tokens, 2, true);
    EXPECT_NEAR(clock.now() - t1,
                ModeledBatchExecutor::kDegradedServiceFactor * b4, 1e-9);
}

TEST_F(ServingTest, PipelinedServesFaster)
{
    const LiveReplay seq = replay(config(16, 0.5), 50.0, 60.0);
    const LiveReplay pipe =
        replay(config(16, 0.5), 50.0, 60.0, SchedulePolicy::Pipelined);
    EXPECT_LE(pipe.stats.mean_latency_s, seq.stats.mean_latency_s + 1e-9);
}

TEST_F(ServingTest, RejectsBadConfig)
{
    EXPECT_THROW((void)poissonArrivals(0.0, 10.0, 1), std::runtime_error);
    EXPECT_THROW(replay(config(0, 0.1), 1.0, 10.0), std::runtime_error);
}

TEST_F(ServingTest, RejectsBadConfigFields)
{
    EXPECT_THROW((void)poissonArrivals(-3.0, 10.0, 1), std::runtime_error);
    EXPECT_THROW((void)poissonArrivals(1.0, 0.0, 1), std::runtime_error);
    LiveServingConfig cfg;
    cfg.deadline_s = -1.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = LiveServingConfig{};
    cfg.max_wait_s = -0.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    EXPECT_NO_THROW(LiveServingConfig{}.validate());
}

TEST_F(ServingTest, RejectsBadFaultProfile)
{
    LiveServingConfig cfg = config(8, 0.1);
    cfg.faults.batch_fault_rate = 1.5;
    EXPECT_THROW(replay(cfg, 1.0, 10.0), std::runtime_error);
    cfg = LiveServingConfig{};
    cfg.faults.backoff_cap_s = cfg.faults.backoff_base_s / 4.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = LiveServingConfig{};
    cfg.faults.backoff_base_s = -1.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST_F(ServingTest, ReplayRejectsThreadOnlyFeatures)
{
    ReplayClock clock;
    ModeledBatchExecutor executor(engine_, model_, LutNnParams{4, 16},
                                  SchedulePolicy::Sequential, clock);
    const std::vector<double> arrivals{0.0, 0.1};
    const auto message = [&](const LiveServingConfig &cfg,
                             const ChaosInjector *chaos) {
        try {
            (void)LiveServingRuntime::replay(cfg, executor, clock,
                                             arrivals, chaos);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    LiveServingConfig two = config(8, 0.1);
    two.workers = 2;
    EXPECT_NE(message(two, nullptr).find("workers"), std::string::npos);
    LiveServingConfig watched = config(8, 0.1);
    watched.resilience.watchdog = true;
    EXPECT_NE(message(watched, nullptr).find("resilience.watchdog"),
              std::string::npos);
    const ChaosInjector chaos(ChaosConfig{});
    EXPECT_NE(message(config(8, 0.1), &chaos).find("chaos"),
              std::string::npos);
    // A breaker and AIMD are in scope.
    LiveServingConfig guarded = config(8, 0.1);
    guarded.resilience.breaker = true;
    guarded.resilience.aimd = true;
    EXPECT_EQ(message(guarded, nullptr), "no error");
}

TEST_F(ServingTest, ZeroFaultRateLeavesStatsUnchanged)
{
    const LiveServingConfig base = config(8, 0.5);
    LiveServingConfig zeroed = base;
    zeroed.faults.batch_fault_rate = 0.0; // explicit no-op profile
    zeroed.faults.seed = 12345;
    const LiveReplay a = replay(base, 20.0, 30.0);
    const LiveReplay b = replay(zeroed, 20.0, 30.0);
    expectIdentical(a.stats, b.stats);
    // Fault-free accounting: every admitted request completes.
    EXPECT_EQ(a.stats.completed, a.stats.submitted - a.stats.rejected);
    EXPECT_EQ(a.stats.failed_requests, 0u);
    EXPECT_EQ(a.stats.batch_retries, 0u);
    EXPECT_DOUBLE_EQ(a.stats.availability, 1.0);
    EXPECT_DOUBLE_EQ(a.goodputRps(), a.throughputRps());
}

TEST_F(ServingTest, FaultStatsDeterministicForProfile)
{
    LiveServingConfig cfg = config(8, 0.5);
    cfg.faults.batch_fault_rate = 0.3;
    const LiveReplay a = replay(cfg, 20.0, 30.0);
    const LiveReplay b = replay(cfg, 20.0, 30.0);
    expectIdentical(a.stats, b.stats);
    // The profile injects real faults at this rate.
    EXPECT_GT(a.stats.batch_retries, 0u);
    expectConserved(a.stats);
    EXPECT_LT(a.stats.availability, 1.0 + 1e-12);
}

TEST_F(ServingTest, FaultStatsPinnedUnderFixedProfile)
{
    // Golden values for one fixed workload + fault profile: any change
    // to batching, the draw keys, the retry ladder, bisection or the
    // accounting shows up here.
    LiveServingConfig cfg = config(8, 0.5);
    cfg.deadline_s = 5.0;
    cfg.faults.batch_fault_rate = 0.3;
    const LiveServingStats s = replay(cfg, 20.0, 30.0).stats;
    EXPECT_EQ(s.submitted, 629u);
    EXPECT_EQ(s.batches, 50u);
    EXPECT_EQ(s.batch_retries, 15u);
    EXPECT_EQ(s.degraded_batches, 11u);
    EXPECT_EQ(s.bisections, 1u);
    EXPECT_EQ(s.failed_batches, 0u);
    EXPECT_EQ(s.completed, 36u);
    EXPECT_EQ(s.timed_out, 340u);
    EXPECT_EQ(s.shed, 253u);
    EXPECT_NEAR(s.availability, 36.0 / 629.0, 1e-12);
}

TEST_F(ServingTest, AvailabilityDegradesMonotonicallyWithFaultRate)
{
    LiveServingConfig cfg = config(8, 0.5);
    cfg.deadline_s = 5.0;
    double prev_avail = 1.0 + 1e-12;
    std::size_t prev_retries = 0;
    for (double rate : {0.0, 0.15, 0.3, 0.6}) {
        cfg.faults.batch_fault_rate = rate;
        const LiveServingStats s = replay(cfg, 20.0, 30.0).stats;
        EXPECT_LE(s.availability, prev_avail) << "rate " << rate;
        EXPECT_GE(s.batch_retries, prev_retries) << "rate " << rate;
        prev_avail = s.availability;
        prev_retries = s.batch_retries;
    }
}

TEST_F(ServingTest, DeadlineConvertsLateRequestsToTimeouts)
{
    LiveServingConfig cfg = config(8, 0.5);
    const LiveReplay unbounded = replay(cfg, 20.0, 30.0);
    ASSERT_GT(unbounded.stats.p99_latency_s, 0.0);
    // A deadline below the observed median must cost a big chunk.
    cfg.deadline_s = unbounded.stats.p50_latency_s * 0.5;
    const LiveReplay bounded = replay(cfg, 20.0, 30.0);
    EXPECT_GT(bounded.stats.timed_out, 0u);
    EXPECT_LT(bounded.stats.availability, 1.0);
    EXPECT_LT(bounded.goodputRps(), bounded.throughputRps());
    expectConserved(bounded.stats);
}

TEST(ServingReplay, ThreeFig10ReplaysAreBitIdentical)
{
    const PimDlEngine engine(upmemPlatform(), xeon4210Dual());
    const LiveReplay first = bench::replayBertBaseServing(engine, true);
    EXPECT_GT(first.stats.completed, 0u);
    for (int i = 0; i < 2; ++i) {
        const LiveReplay again =
            bench::replayBertBaseServing(engine, true);
        expectIdentical(first.stats, again.stats);
        EXPECT_EQ(first.span_s, again.span_s);
    }
}

/**
 * Expects no batch of @p run to start with fewer requests than
 * min(@p max_batch, requests queued at its start): a free worker takes
 * every queued request it can. A batch starts at done_s - service_s; a
 * request is queued then if it has arrived and its own batch has not
 * started yet.
 */
void
expectNoBatchBelowQueuedWork(const LiveReplay &run, std::size_t max_batch)
{
    struct Served
    {
        double enqueue_s;
        double start_s;
        std::size_t batch_size;
    };
    std::vector<Served> served;
    std::map<std::uint64_t, Served> batches;
    for (const auto &r : run.requests) {
        if (!r || r->batch_id == 0)
            continue; // rejected or shed: never in a batch
        served.push_back(
            {r->enqueue_s, r->done_s - r->service_s, r->batch_size});
        batches.emplace(r->batch_id, served.back());
    }
    ASSERT_FALSE(batches.empty());
    std::size_t short_batches = 0;
    std::string first;
    for (const auto &[id, batch] : batches) {
        std::size_t queued = 0;
        for (const Served &r : served)
            queued += r.enqueue_s <= batch.start_s &&
                      r.start_s >= batch.start_s;
        if (batch.batch_size >= std::min(max_batch, queued))
            continue;
        if (short_batches++ == 0)
            first = "batch " + std::to_string(id) + " started with " +
                    std::to_string(batch.batch_size) + " of " +
                    std::to_string(queued) + " queued";
    }
    EXPECT_EQ(short_batches, 0u) << "of " << batches.size()
                                 << " batches; first: " << first;
}

TEST(ServingReplay, NoBatchClosesBelowQueuedWork)
{
    const PimDlEngine engine(upmemPlatform(), xeon4210Dual());
    for (bool smoke : {true, false})
        expectNoBatchBelowQueuedWork(
            bench::replayBertBaseServing(engine, smoke), 32);

    // ServingTest's 20 rps workload over three seeds, then twice the
    // rate full batches can serve.
    ReplayClock clock;
    ModeledBatchExecutor executor(
        engine, customTransformer("serve-test", 256, 2, 128, 1),
        LutNnParams{4, 16}, SchedulePolicy::Sequential, clock);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 0.5;
    cfg.collect_outputs = false;
    for (std::uint64_t seed : {1, 2, 3})
        expectNoBatchBelowQueuedWork(
            LiveServingRuntime::replay(cfg, executor, clock,
                                       poissonArrivals(20.0, 30.0, seed)),
            cfg.max_batch);
    const double overload_rps = 2.0 * static_cast<double>(cfg.max_batch) /
                                executor.batchLatency(cfg.max_batch);
    expectNoBatchBelowQueuedWork(
        LiveServingRuntime::replay(cfg, executor, clock,
                                   poissonArrivals(overload_rps, 30.0, 1)),
        cfg.max_batch);
}

/** Sleeps a fixed service time on the replay clock; throws on the
 * first throws_ calls. */
class FixedServiceExecutor final : public BatchExecutor
{
  public:
    FixedServiceExecutor(Clock &clock, double service_s, int throws = 0)
        : clock_(clock), service_s_(service_s), throws_(throws)
    {}

    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        clock_.sleepFor(service_s_);
        if (throws_ > 0) {
            --throws_;
            throw std::runtime_error("injected executor fault");
        }
        return tokens;
    }

  private:
    Clock &clock_;
    double service_s_;
    int throws_;
};

TEST(ServingReplay, ArrivalDuringBatchKeepsItsEnqueueTime)
{
    ReplayClock clock;
    FixedServiceExecutor executor(clock, 1.0);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 0.5;
    // Request 0's batch closes at 0.5 s and executes until 1.5 s;
    // requests 1 and 2 arrive meanwhile (request 3 keeps admission open
    // past them).
    const LiveReplay run = LiveServingRuntime::replay(
        cfg, executor, clock, {0.0, 0.6, 0.75, 5.0});
    ASSERT_EQ(run.requests.size(), 4u);
    for (const auto &r : run.requests)
        ASSERT_TRUE(r.has_value() &&
                    r->status == LiveRequestStatus::Completed);
    const LiveRequestResult &r0 = *run.requests[0];
    const LiveRequestResult &r1 = *run.requests[1];
    const LiveRequestResult &r2 = *run.requests[2];
    EXPECT_DOUBLE_EQ(r0.enqueue_s, 0.0);
    EXPECT_DOUBLE_EQ(r0.done_s, 1.5);
    EXPECT_DOUBLE_EQ(r1.enqueue_s, 0.6) << "not the batch's completion";
    EXPECT_DOUBLE_EQ(r2.enqueue_s, 0.75);
    // Both queued behind the busy worker, which took them as one
    // batch when it came free at 1.5 s (request 1 had waited out its
    // max-wait by then).
    EXPECT_EQ(r1.batch_id, 2u);
    EXPECT_EQ(r2.batch_id, 2u);
    EXPECT_DOUBLE_EQ(r1.queue_wait_s, 1.5 - 0.6);
    EXPECT_DOUBLE_EQ(r1.done_s, 2.5);
    // Admission closes after the last arrival, which flushes request
    // 3's batch at once.
    EXPECT_EQ(run.requests[3]->batch_id, 3u);
    EXPECT_DOUBLE_EQ(run.requests[3]->done_s, 6.0);
    EXPECT_DOUBLE_EQ(run.span_s, 6.0);
}

TEST(ServingReplay, BisectionKeepsLaterBatchIds)
{
    ReplayClock clock;
    LiveServingConfig cfg;
    cfg.max_batch = 2;
    cfg.max_wait_s = 0.01;
    cfg.faults.max_retries = 1;
    // Batch 1 ({0, 1}) throws on both ladder attempts and is bisected;
    // its halves then succeed.
    FixedServiceExecutor executor(clock, 0.1, 2);
    const LiveReplay run = LiveServingRuntime::replay(
        cfg, executor, clock, {0.0, 0.001, 5.0, 5.001});
    EXPECT_EQ(run.stats.bisections, 1u);
    ASSERT_EQ(run.requests.size(), 4u);
    for (const auto &r : run.requests)
        ASSERT_TRUE(r.has_value() &&
                    r->status == LiveRequestStatus::Completed);
    EXPECT_EQ(run.requests[0]->batch_id, 1u);
    EXPECT_EQ(run.requests[1]->batch_id, 1u)
        << "bisection halves keep their batch's id";
    EXPECT_EQ(run.requests[2]->batch_id, 2u)
        << "the batch dispatched after a bisection is the next id";
    EXPECT_EQ(run.requests[3]->batch_id, 2u);
    expectConserved(run.stats);
}

TEST(ServingReplay, ReplayClockSleepsOutsideAReplay)
{
    ReplayClock clock;
    clock.sleepFor(0.25);
    EXPECT_DOUBLE_EQ(clock.now(), 0.25);
    clock.sleepFor(-1.0);
    EXPECT_DOUBLE_EQ(clock.now(), 0.25);
}

} // namespace
} // namespace pimdl
