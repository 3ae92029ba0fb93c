/**
 * @file
 * Live serving runtime tests. Every timing-sensitive assertion runs on
 * a ManualClock, so deadlines, max-wait dispatch, and shedding are
 * decided by time the test itself advances — a descheduled CI runner
 * cannot flip an outcome.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "runtime/serving_live.h"

namespace pimdl {
namespace {

/**
 * Identity executor with injectable virtual service time and faults.
 * Advancing the ManualClock inside execute models a batch that takes
 * service_s_ seconds without any real sleeping.
 */
class StubExecutor final : public BatchExecutor
{
  public:
    explicit StubExecutor(ManualClock *clock = nullptr,
                          double service_s = 0.0)
        : clock_(clock), service_s_(service_s)
    {}

    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        calls_.fetch_add(1, std::memory_order_relaxed);
        if (degraded)
            degraded_calls_.fetch_add(1, std::memory_order_relaxed);
        if (throws_remaining_.load(std::memory_order_relaxed) > 0) {
            throws_remaining_.fetch_sub(1, std::memory_order_relaxed);
            throw std::runtime_error("injected executor fault");
        }
        if (clock_ != nullptr && service_s_ > 0.0)
            clock_->advance(service_s_);
        return tokens;
    }

    std::size_t calls() const { return calls_.load(); }
    std::size_t degradedCalls() const { return degraded_calls_.load(); }
    void throwNext(int count) { throws_remaining_.store(count); }

  private:
    ManualClock *clock_;
    double service_s_;
    std::atomic<std::size_t> calls_{0};
    std::atomic<std::size_t> degraded_calls_{0};
    std::atomic<int> throws_remaining_{0};
};

/** Executor that blocks until released (backpressure tests). */
class GatedExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        entered_.store(true, std::memory_order_release);
        while (!released_.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return tokens;
    }

    /** Spin (real time) until a worker is blocked in execute. */
    void
    awaitEntered() const
    {
        while (!entered_.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    void release() { released_.store(true, std::memory_order_release); }

  private:
    std::atomic<bool> entered_{false};
    std::atomic<bool> released_{false};
};

/** Spin (real time) until a forming batch took every queued request. */
void
awaitQueueDrained(const LiveServingRuntime &runtime)
{
    while (runtime.queueDepth() != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

Tensor
requestTensor(std::size_t seq, std::size_t hidden, std::uint64_t seed)
{
    Tensor t(seq, hidden);
    Rng rng(seed);
    for (std::size_t r = 0; r < seq; ++r)
        for (std::size_t c = 0; c < hidden; ++c)
            t(r, c) = rng.uniform() - 0.5f;
    return t;
}

// ---------------------------------------------------------------------
// BoundedMpmcQueue semantics.
// ---------------------------------------------------------------------

TEST(ServingLiveQueue, TryPushRejectsWhenFull)
{
    BoundedMpmcQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)) << "full queue must reject";
    int out = 0;
    EXPECT_TRUE(q.tryPop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(q.tryPush(3)) << "freed slot must admit again";
    EXPECT_EQ(q.size(), 2u);
}

TEST(ServingLiveQueue, FifoOrder)
{
    BoundedMpmcQueue<int> q(16);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(q.tryPush(i));
    int out = -1;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_TRUE(q.empty());
}

TEST(ServingLiveQueue, CloseDrainsPendingThenEnds)
{
    BoundedMpmcQueue<int> q(8);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    q.close();
    EXPECT_FALSE(q.push(3)) << "closed queue must reject pushes";
    EXPECT_FALSE(q.tryPush(3));
    int out = 0;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 2);
    EXPECT_FALSE(q.pop(out)) << "closed and drained: pop must end";
    EXPECT_FALSE(q.popFor(out, 0.01));
}

TEST(ServingLiveQueue, PopBlocksUntilPush)
{
    BoundedMpmcQueue<int> q(4);
    int got = 0;
    std::thread consumer([&] {
        int out = 0;
        ASSERT_TRUE(q.pop(out));
        got = out;
    });
    ASSERT_TRUE(q.push(42));
    consumer.join();
    EXPECT_EQ(got, 42);
}

// ---------------------------------------------------------------------
// Concurrency stress (meaningful under TSan).
// ---------------------------------------------------------------------

TEST(ServingLiveStress, MpmcDeliversEachItemExactlyOnce)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 200;
    BoundedMpmcQueue<int> q(8);

    std::vector<std::vector<int>> received(kConsumers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&, c] {
            int out = 0;
            while (q.pop(out))
                received[c].push_back(out);
        });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(p * kPerProducer + i));
        });
    for (std::thread &t : producers)
        t.join();
    q.close();
    for (std::thread &t : consumers)
        t.join();

    std::vector<int> all;
    for (const std::vector<int> &r : received)
        all.insert(all.end(), r.begin(), r.end());
    ASSERT_EQ(all.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    std::sort(all.begin(), all.end());
    for (int i = 0; i < kProducers * kPerProducer; ++i)
        ASSERT_EQ(all[static_cast<std::size_t>(i)], i)
            << "item lost or duplicated";
}

TEST(ServingLiveStress, ManySubmittersConserveRequests)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 50;
    StubExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 1e-3;
    cfg.queue_capacity = 64;
    cfg.workers = 2;
    LiveServingRuntime runtime(cfg, executor);

    std::atomic<std::size_t> admitted{0};
    std::vector<std::thread> threads;
    std::vector<std::vector<std::future<LiveRequestResult>>> futures(
        kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                auto f = runtime.submit(requestTensor(2, 4, t * 100 + i),
                                        t);
                if (f.has_value()) {
                    admitted.fetch_add(1);
                    futures[t].push_back(std::move(*f));
                }
            }
        });
    for (std::thread &t : threads)
        t.join();
    runtime.drain();

    std::size_t resolved = 0;
    for (auto &per_thread : futures)
        for (auto &f : per_thread) {
            const LiveRequestResult r = f.get();
            EXPECT_NE(r.status, LiveRequestStatus::Shed);
            ++resolved;
        }
    EXPECT_EQ(resolved, admitted.load());

    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.submitted, kThreads * kPerThread);
    EXPECT_EQ(stats.rejected, kThreads * kPerThread - admitted.load());
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              admitted.load())
        << "every admitted request must resolve exactly once";
}

// ---------------------------------------------------------------------
// Policy semantics on a ManualClock.
// ---------------------------------------------------------------------

TEST(ServingLive, FullBatchDispatchesWithoutClockAdvance)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 1000.0; // only batch-full can trigger dispatch
    LiveServingRuntime runtime(cfg, executor, &clock);

    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < 4; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, i));
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    std::uint64_t batch_id = 0;
    for (auto &f : futures) {
        const LiveRequestResult r = f.get();
        EXPECT_EQ(r.status, LiveRequestStatus::Completed);
        EXPECT_EQ(r.batch_size, 4u);
        if (batch_id == 0)
            batch_id = r.batch_id;
        EXPECT_EQ(r.batch_id, batch_id) << "one full batch expected";
    }
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_DOUBLE_EQ(stats.mean_batch_size, 4.0);
}

TEST(ServingLive, MaxWaitFlushesPartialBatch)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 1.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f0 = runtime.submit(requestTensor(2, 4, 0));
    auto f1 = runtime.submit(requestTensor(2, 4, 1));
    ASSERT_TRUE(f0.has_value() && f1.has_value());
    // Nothing dispatches until virtual time passes max_wait; let the
    // worker pull both requests into its forming batch first.
    awaitQueueDrained(runtime);
    clock.advance(2.0);
    const LiveRequestResult r0 = f0->get();
    const LiveRequestResult r1 = f1->get();
    EXPECT_EQ(r0.status, LiveRequestStatus::Completed);
    EXPECT_EQ(r1.status, LiveRequestStatus::Completed);
    EXPECT_EQ(r0.batch_size, 2u);
    EXPECT_EQ(r0.batch_id, r1.batch_id);
    runtime.drain();
    EXPECT_EQ(runtime.stats().batches, 1u);
}

TEST(ServingLive, AdvanceOfExactlyMaxWaitFlushesAtAnyEnqueueTime)
{
    // In seconds-as-doubles, max_wait_s - (now - enqueue_s) lands a
    // rounding error above zero for some enqueue times; with 2 ms and
    // 1 us steps the first such time is the 4th request's.
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 2e-3;
    LiveServingRuntime runtime(cfg, executor, &clock);

    constexpr std::size_t kOffsets = 64;
    for (std::size_t k = 0; k < kOffsets; ++k) {
        auto f = runtime.submit(requestTensor(2, 4, k));
        ASSERT_TRUE(f.has_value());
        awaitQueueDrained(runtime);
        clock.advance(cfg.max_wait_s);
        // Real-time bound only so a regression fails instead of
        // hanging; a flush takes one 200 us poll slice.
        ASSERT_EQ(f->wait_for(std::chrono::seconds(5)),
                  std::future_status::ready)
            << "partial batch enqueued at request " << k
            << " never flushed after advance(max_wait_s)";
        EXPECT_EQ(f->get().status, LiveRequestStatus::Completed);
        clock.advance(1e-6);
    }
    runtime.drain();
    EXPECT_EQ(runtime.stats().batches, kOffsets);
}

TEST(ServingLive, ShedsPastDeadlineAtDispatch)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 1.0;
    cfg.deadline_s = 0.5; // shorter than max_wait: shed on dispatch
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f0 = runtime.submit(requestTensor(2, 4, 0));
    auto f1 = runtime.submit(requestTensor(2, 4, 1));
    ASSERT_TRUE(f0.has_value() && f1.has_value());
    clock.advance(2.0);
    EXPECT_EQ(f0->get().status, LiveRequestStatus::Shed);
    EXPECT_EQ(f1->get().status, LiveRequestStatus::Shed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.batches, 0u) << "fully shed batch never executes";
    EXPECT_EQ(executor.calls(), 0u);
    EXPECT_DOUBLE_EQ(stats.availability, 0.0);
}

TEST(ServingLive, VirtualServiceTimePastDeadlineTimesOut)
{
    ManualClock clock;
    StubExecutor executor(&clock, 1.0); // service takes 1 virtual sec
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.deadline_s = 0.5;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f = runtime.submit(requestTensor(2, 4, 0));
    ASSERT_TRUE(f.has_value());
    const LiveRequestResult r = f->get();
    EXPECT_EQ(r.status, LiveRequestStatus::TimedOut);
    EXPECT_DOUBLE_EQ(r.service_s, 1.0);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.completed, 0u) << "a late request is not completed";
    EXPECT_EQ(stats.timed_out, 1u);
    EXPECT_DOUBLE_EQ(stats.availability, 0.0);
}

TEST(ServingLive, ConservationHoldsWithTimeouts)
{
    ManualClock clock;
    StubExecutor executor(&clock, 1.0); // service takes 1 virtual sec
    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 1000.0; // only batch-full can trigger dispatch
    cfg.deadline_s = 0.5;
    LiveServingRuntime runtime(cfg, executor, &clock);

    // Budget 0 sheds at admission; the other four form one full batch
    // at t=0 that finishes at t=1: the two 0.5 s budgets time out, the
    // two 10 s budgets complete.
    std::vector<std::future<LiveRequestResult>> futures;
    for (double budget : {0.0, -1.0, -1.0, 10.0, 10.0}) {
        auto f = runtime.submit(requestTensor(2, 4, futures.size()), 0,
                                budget);
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    EXPECT_EQ(futures[0].get().status, LiveRequestStatus::Shed);
    EXPECT_EQ(futures[1].get().status, LiveRequestStatus::TimedOut);
    EXPECT_EQ(futures[2].get().status, LiveRequestStatus::TimedOut);
    EXPECT_EQ(futures[3].get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(futures[4].get().status, LiveRequestStatus::Completed);
    runtime.drain();

    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.timed_out, 2u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.failed_requests, 0u);
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              stats.submitted - stats.rejected)
        << "each admitted request has exactly one terminal outcome";
    EXPECT_DOUBLE_EQ(stats.availability, 0.4);
}

TEST(ServingLive, MismatchedSubmitThrowsWithoutBreakingConservation)
{
    ManualClock clock;
    StubExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 2;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto ok = runtime.submit(requestTensor(2, 4, 1));
    ASSERT_TRUE(ok.has_value());
    EXPECT_THROW((void)runtime.submit(requestTensor(3, 4, 2)),
                 std::runtime_error)
        << "a request of another shape must be refused";
    auto ok2 = runtime.submit(requestTensor(2, 4, 3));
    ASSERT_TRUE(ok2.has_value());
    EXPECT_EQ(ok->get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(ok2->get().status, LiveRequestStatus::Completed);
    runtime.drain();

    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.submitted, 2u) << "the thrown submit is not counted";
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              stats.submitted - stats.rejected);
    EXPECT_DOUBLE_EQ(stats.availability, 1.0);
}

TEST(ServingLive, InjectedFaultsExhaustRetryLadder)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.faults.batch_fault_rate = 1.0; // every attempt faults
    cfg.faults.max_retries = 2;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f = runtime.submit(requestTensor(2, 4, 0));
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->get().status, LiveRequestStatus::Failed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.failed_requests, 1u);
    EXPECT_EQ(stats.failed_batches, 1u);
    EXPECT_EQ(stats.batch_retries, 2u);
    EXPECT_EQ(executor.calls(), 3u) << "initial attempt + 2 retries";
    EXPECT_EQ(executor.degradedCalls(), 2u)
        << "retry attempts must run the degraded path";
}

TEST(ServingLive, ExecutorExceptionRetriesThenSucceeds)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    executor.throwNext(1);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f = runtime.submit(requestTensor(2, 4, 0));
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->get().status, LiveRequestStatus::Completed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.batch_retries, 1u);
    EXPECT_EQ(stats.degraded_batches, 1u);
    EXPECT_EQ(stats.failed_batches, 0u);
    EXPECT_EQ(executor.calls(), 2u);
}

TEST(ServingLive, FifoPerTenantBatchOrder)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 1; // each request becomes its own batch
    cfg.max_wait_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    constexpr std::size_t kRequests = 12;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, i), i % 3);
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    runtime.drain();

    std::vector<std::uint64_t> last_batch(3, 0);
    for (std::size_t i = 0; i < kRequests; ++i) {
        const LiveRequestResult r = futures[i].get();
        EXPECT_EQ(r.status, LiveRequestStatus::Completed);
        EXPECT_EQ(r.tenant, i % 3);
        EXPECT_GT(r.batch_id, last_batch[i % 3])
            << "per-tenant submission order must map to increasing "
               "batch ids (one FIFO batch forms at a time)";
        last_batch[i % 3] = r.batch_id;
    }
}

TEST(ServingLive, DrainFlushesFormingBatch)
{
    ManualClock clock;
    StubExecutor executor(&clock, 0.0);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 1000.0; // would never flush on its own
    LiveServingRuntime runtime(cfg, executor, &clock);

    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < 3; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, i));
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    runtime.drain();
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, LiveRequestStatus::Completed);
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.batches, 1u) << "drain flushes one partial batch";
    EXPECT_FALSE(runtime.submit(requestTensor(2, 4, 9)).has_value())
        << "submits after drain must reject";
}

TEST(ServingLive, AdmissionControlRejectsWhenPipelineFull)
{
    GatedExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.queue_capacity = 4;
    cfg.workers = 1;
    LiveServingRuntime runtime(cfg, executor);

    // With the worker gated, pipeline capacity is bounded: one batch
    // per worker executing and queue_capacity waiting. Keep
    // submitting: admission control must reject well before 100
    // submits.
    std::vector<std::future<LiveRequestResult>> futures;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < 100 && rejected == 0; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, i));
        if (f.has_value())
            futures.push_back(std::move(*f));
        else
            ++rejected;
    }
    EXPECT_GE(rejected, 1u) << "bounded pipeline must reject";
    EXPECT_LE(futures.size(),
              cfg.queue_capacity + cfg.workers * cfg.max_batch)
        << "admitted count must respect the pipeline bound";

    executor.release();
    runtime.drain();
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(runtime.stats().rejected, rejected);
}

TEST(ServingLive, RequestsQueuedBehindBusyWorkerRideItsNextBatch)
{
    ManualClock clock;
    GatedExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 0.0; // a batch never waits for more requests
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto first = runtime.submit(requestTensor(2, 4, 0));
    ASSERT_TRUE(first.has_value());
    executor.awaitEntered(); // the worker is busy with {first}
    std::vector<std::future<LiveRequestResult>> queued;
    for (std::size_t i = 1; i <= 5; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, i));
        ASSERT_TRUE(f.has_value());
        queued.push_back(std::move(*f));
    }
    executor.release();
    const LiveRequestResult r0 = first->get();
    EXPECT_EQ(r0.batch_size, 1u);
    for (auto &f : queued) {
        const LiveRequestResult r = f.get();
        EXPECT_EQ(r.status, LiveRequestStatus::Completed);
        EXPECT_EQ(r.batch_id, r0.batch_id + 1);
        EXPECT_EQ(r.batch_size, queued.size())
            << "every request queued while the worker was busy must "
               "ride its next batch";
    }
    runtime.drain();
    EXPECT_EQ(runtime.stats().batches, 2u);
}

// ---------------------------------------------------------------------
// End-to-end: the functional transformer behind the runtime produces
// per-request outputs identical to direct single-request forwards.
// ---------------------------------------------------------------------

TEST(ServingLive, FunctionalExecutorMatchesDirectForward)
{
    FunctionalTransformerConfig model_cfg; // 32 hidden, 2 layers
    FunctionalTransformer model(model_cfg);
    FunctionalBatchExecutor executor(model, LinearBackendKind::Dense);

    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 5e-3;
    LiveServingRuntime runtime(cfg, executor);

    constexpr std::size_t kSeq = 4;
    constexpr std::size_t kRequests = 3; // pads to a pow2 bucket of 4
    std::vector<Tensor> inputs;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        inputs.push_back(
            requestTensor(kSeq, model_cfg.hidden, 7 * i + 1));
        auto f = runtime.submit(inputs.back());
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    runtime.drain();

    for (std::size_t i = 0; i < kRequests; ++i) {
        const LiveRequestResult r = futures[i].get();
        ASSERT_EQ(r.status, LiveRequestStatus::Completed);
        const Tensor direct =
            model.forward(inputs[i], kSeq, LinearBackendKind::Dense);
        ASSERT_EQ(r.output.rows(), direct.rows());
        ASSERT_EQ(r.output.cols(), direct.cols());
        for (std::size_t row = 0; row < direct.rows(); ++row)
            for (std::size_t col = 0; col < direct.cols(); ++col)
                ASSERT_EQ(r.output(row, col), direct(row, col))
                    << "batched row must be bit-equal to the direct "
                       "forward (request "
                    << i << ", element " << row << "," << col << ")";
    }
}

} // namespace
} // namespace pimdl
