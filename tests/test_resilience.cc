/**
 * @file
 * Resilience control-plane tests: circuit breaker, chaos injector,
 * watchdog seizure/respawn, poison bisection, expired-budget admission
 * shedding, the AIMD in-flight limit, exception and heartbeat-loss
 * storms, and a seeded chaos-storm property test over every
 * combination of the resilience switches.
 * Every timing-sensitive assertion runs on a ManualClock — the
 * watchdog polls real time but decides on virtual time, so hangs are
 * declared by clock.advance(), never by CI load.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "fault/chaos.h"
#include "obs/metrics.h"
#include "runtime/resilience.h"
#include "runtime/serving_live.h"

namespace pimdl {
namespace {

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

bool
tensorsBitExact(const Tensor &a, const Tensor &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.rowPtr(0), b.rowPtr(0),
                       a.rows() * a.cols() * sizeof(float)) == 0;
}

/** Identity executor whose first-ever call blocks until released
 * (the hung worker of the watchdog tests). */
class HangOnceExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        calls_.fetch_add(1, std::memory_order_relaxed);
        if (first_.exchange(false, std::memory_order_acq_rel)) {
            entered_.store(true, std::memory_order_release);
            while (!released_.load(std::memory_order_acquire))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        return tokens;
    }

    void
    awaitEntered() const
    {
        while (!entered_.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    void release() { released_.store(true, std::memory_order_release); }
    std::size_t calls() const { return calls_.load(); }

  private:
    std::atomic<bool> first_{true};
    std::atomic<bool> entered_{false};
    std::atomic<bool> released_{false};
    std::atomic<std::size_t> calls_{0};
};

/** Identity executor that throws (every attempt, degraded or not)
 * whenever the batch contains the poison marker value. */
class PoisonExecutor final : public BatchExecutor
{
  public:
    static constexpr float kPoison = 1234.5f;

    /** Real time each call stays in flight (0 = returns at once). */
    std::chrono::microseconds busy{0};

    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        if (busy.count() > 0)
            std::this_thread::sleep_for(busy);
        const float *data = tokens.rowPtr(0);
        for (std::size_t i = 0; i < tokens.rows() * tokens.cols(); ++i)
            if (data[i] == kPoison)
                throw std::runtime_error("poison request");
        return tokens;
    }
};

/** Identity executor whose primary path can be broken at runtime;
 * the degraded path always works (the breaker's target scenario). */
class BreakableExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        if (degraded)
            degraded_calls_.fetch_add(1, std::memory_order_relaxed);
        else
            primary_calls_.fetch_add(1, std::memory_order_relaxed);
        if (!degraded && broken_.load(std::memory_order_acquire))
            throw std::runtime_error("primary path down");
        return tokens;
    }

    void setBroken(bool broken) { broken_.store(broken); }
    std::size_t primaryCalls() const { return primary_calls_.load(); }
    std::size_t degradedCalls() const { return degraded_calls_.load(); }

  private:
    std::atomic<bool> broken_{false};
    std::atomic<std::size_t> primary_calls_{0};
    std::atomic<std::size_t> degraded_calls_{0};
};

/** Executor that throws while failing, otherwise blocks until
 * released (AIMD tests: failures shrink the limit, held requests
 * occupy it). */
class GateExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        if (failing_.load(std::memory_order_acquire))
            throw std::runtime_error("gate failing");
        while (!released_.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return tokens;
    }

    void setFailing(bool failing) { failing_.store(failing); }
    void release() { released_.store(true, std::memory_order_release); }

  private:
    std::atomic<bool> failing_{false};
    std::atomic<bool> released_{false};
};

/** Executor throwing a non-std::exception type (catch-all audit). */
class NonStdThrowExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &, std::size_t, bool) override
    {
        throw 42; // NOLINT: deliberately not an exception type
    }
};

/** Identity executor. */
class EchoExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t, bool) override
    {
        return tokens;
    }
};

/** Blocks until @p runtime has accounted @p n batches: a future
 * resolves before its batch's stats (and AIMD update) land. */
void
awaitBatches(const LiveServingRuntime &runtime, std::size_t n)
{
    while (runtime.stats().batches < n)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// ---------------------------------------------------------------------
// CircuitBreaker unit tests.
// ---------------------------------------------------------------------

/** Feeds @p n outcomes of one kind into @p breaker. */
void
record(CircuitBreaker &breaker, bool failure, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (failure)
            breaker.recordFailure();
        else
            breaker.recordSuccess();
    }
}

TEST(CircuitBreakerTest, OpensOnFailureRateThenRecoversViaProbes)
{
    ManualClock clock;
    CircuitBreaker breaker(true, &clock, "test.breaker.a");

    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allowPrimary());
    record(breaker, /*failure=*/true, kBreakerMinSamples - 1);
    EXPECT_EQ(breaker.state(), BreakerState::Closed)
        << "below kBreakerMinSamples the breaker must not trip";
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 1u);
    EXPECT_FALSE(breaker.allowPrimary()) << "open short-circuits";

    clock.advance(0.5 * kBreakerCooldownS);
    EXPECT_FALSE(breaker.allowPrimary()) << "cooldown not elapsed";
    clock.advance(0.6 * kBreakerCooldownS);
    for (std::size_t p = 0; p < kBreakerProbes; ++p) {
        EXPECT_TRUE(breaker.allowPrimary()) << "half-open probe " << p;
        EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    }
    EXPECT_FALSE(breaker.allowPrimary()) << "probe budget exhausted";
    record(breaker, /*failure=*/false, kBreakerProbeSuccesses - 1);
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::Closed)
        << "enough probe successes must close the breaker";
    EXPECT_TRUE(breaker.allowPrimary());
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens)
{
    ManualClock clock;
    CircuitBreaker breaker(true, &clock, "test.breaker.b");
    record(breaker, /*failure=*/true, kBreakerMinSamples);
    ASSERT_EQ(breaker.state(), BreakerState::Open);
    clock.advance(1.1 * kBreakerCooldownS);
    ASSERT_TRUE(breaker.allowPrimary());
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open)
        << "failed probe restarts the cooldown";
    EXPECT_EQ(breaker.opens(), 2u);
    EXPECT_FALSE(breaker.allowPrimary());
    clock.advance(1.1 * kBreakerCooldownS);
    EXPECT_TRUE(breaker.allowPrimary()) << "second cooldown elapses";
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldFailures)
{
    ManualClock clock;
    CircuitBreaker windowed(true, &clock, "test.breaker.c");
    // Fill one window just under the threshold, then slide every
    // failure out with a full window of successes.
    const std::size_t under = kBreakerWindow / 2 - 1;
    record(windowed, /*failure=*/true, under);
    record(windowed, /*failure=*/false, kBreakerWindow - under);
    EXPECT_EQ(windowed.state(), BreakerState::Closed);
    record(windowed, /*failure=*/false, kBreakerWindow);
    // As many failures again: the lifetime total now exceeds the
    // threshold of a window, the current window does not.
    record(windowed, /*failure=*/true, under);
    EXPECT_EQ(windowed.state(), BreakerState::Closed);
    EXPECT_EQ(windowed.opens(), 0u);
}

TEST(CircuitBreakerTest, DisabledBreakerAlwaysAllows)
{
    ManualClock clock;
    CircuitBreaker breaker(false, &clock, "test.breaker.e");
    for (int i = 0; i < 32; ++i)
        breaker.recordFailure();
    EXPECT_TRUE(breaker.allowPrimary());
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_EQ(breaker.opens(), 0u);
}

// ---------------------------------------------------------------------
// ChaosInjector unit tests.
// ---------------------------------------------------------------------

TEST(ChaosInjectorTest, SameSeedReplaysIdentically)
{
    ChaosConfig cfg;
    cfg.seed = 77;
    cfg.worker_stall_rate = 0.3;
    cfg.exception_rate = 0.3;
    cfg.slow_rate = 0.3;
    cfg.heartbeat_loss_rate = 0.3;
    ChaosInjector a(cfg);
    ChaosInjector b(cfg);
    for (std::uint64_t batch = 0; batch < 64; ++batch) {
        for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
            EXPECT_EQ(a.stallSeconds(batch, attempt),
                      b.stallSeconds(batch, attempt));
            EXPECT_EQ(a.injectException(batch, attempt, false),
                      b.injectException(batch, attempt, false));
            EXPECT_EQ(a.slowExtraSeconds(batch, attempt),
                      b.slowExtraSeconds(batch, attempt));
        }
        EXPECT_EQ(a.dropHeartbeat(1, batch), b.dropHeartbeat(1, batch));
    }
}

TEST(ChaosInjectorTest, EventSetsAreMonotoneInRate)
{
    // Coupled draws: an event firing at rate r must also fire at any
    // rate r' > r — the monotone-degradation assertion of bench_chaos
    // rests on this.
    ChaosConfig lo;
    lo.exception_rate = 0.2;
    lo.worker_stall_rate = 0.2;
    ChaosConfig hi = lo;
    hi.exception_rate = 0.6;
    hi.worker_stall_rate = 0.6;
    ChaosInjector a(lo);
    ChaosInjector b(hi);
    for (std::uint64_t batch = 0; batch < 256; ++batch) {
        if (a.injectException(batch, 0, false)) {
            EXPECT_TRUE(b.injectException(batch, 0, false));
        }
        if (a.stallSeconds(batch, 0) > 0.0) {
            EXPECT_GT(b.stallSeconds(batch, 0), 0.0);
        }
    }
}

TEST(ChaosInjectorTest, PrimaryOnlyExceptionsSpareDegradedAttempts)
{
    ChaosConfig cfg;
    cfg.exception_rate = 1.0;
    ChaosInjector chaos(cfg);
    EXPECT_TRUE(chaos.injectException(7, 0, /*degraded=*/false));
    EXPECT_FALSE(chaos.injectException(7, 1, /*degraded=*/true))
        << "primary-only storms must leave the fallback path healthy";
}

TEST(ChaosInjectorTest, ValidationRejectsBadRates)
{
    ChaosConfig cfg;
    cfg.exception_rate = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = ChaosConfig{};
    cfg.worker_stall_rate = -0.1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

// ---------------------------------------------------------------------
// Watchdog supervision.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, WatchdogSeizesHungWorkerAndRespawns)
{
    ManualClock clock;
    HangOnceExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.workers = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.watchdog = true;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f = runtime.submit(requestTensor(2, 4, 1));
    ASSERT_TRUE(f.has_value());
    executor.awaitEntered(); // worker published its heartbeat and hung
    // No batch served yet, so the latency EWMA is 0 and the hang
    // threshold is its floor.
    clock.advance(20.0 * kMinHangTimeoutS);

    // The watchdog (real-time polls, virtual-time decisions) seizes
    // the batch, respawns the slot, and the replacement worker serves
    // the retry — the future resolves while the first worker is still
    // stuck in the executor.
    const LiveRequestResult result = f->get();
    EXPECT_EQ(result.status, LiveRequestStatus::Completed);

    executor.release(); // let the hung worker exit so drain can join
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.watchdog_hangs, 1u);
    EXPECT_EQ(stats.watchdog_respawns, 1u);
    EXPECT_EQ(stats.watchdog_discarded, 1u)
        << "the hung worker's late result must be discarded";
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_GE(stats.batch_retries, 1u);
    EXPECT_EQ(executor.calls(), 2u)
        << "hung attempt + replacement worker's retry";
}

// ---------------------------------------------------------------------
// Poison-batch bisection.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, BisectionIsolatesPoisonRequest)
{
    ManualClock clock;
    PoisonExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 10.0; // collect the full batch (virtual time
                           // never advances, so the wait never trips)
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    Tensor poison(2, 4);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            poison(r, c) = PoisonExecutor::kPoison;
    std::vector<Tensor> innocents;
    innocents.push_back(requestTensor(2, 4, 11));
    innocents.push_back(requestTensor(2, 4, 12));
    innocents.push_back(requestTensor(2, 4, 13));

    auto fp = runtime.submit(poison);
    auto f1 = runtime.submit(innocents[0]);
    auto f2 = runtime.submit(innocents[1]);
    auto f3 = runtime.submit(innocents[2]);
    ASSERT_TRUE(fp.has_value() && f1.has_value() && f2.has_value() &&
                f3.has_value());

    EXPECT_EQ(fp->get().status, LiveRequestStatus::Failed)
        << "exactly the poisoned request must fail";
    const LiveRequestResult r1 = f1->get();
    const LiveRequestResult r2 = f2->get();
    const LiveRequestResult r3 = f3->get();
    EXPECT_EQ(r1.status, LiveRequestStatus::Completed);
    EXPECT_EQ(r2.status, LiveRequestStatus::Completed);
    EXPECT_EQ(r3.status, LiveRequestStatus::Completed);
    EXPECT_TRUE(tensorsBitExact(r1.output, innocents[0]))
        << "innocents must complete bit-exact through the bisection";
    EXPECT_TRUE(tensorsBitExact(r2.output, innocents[1]));
    EXPECT_TRUE(tensorsBitExact(r3.output, innocents[2]));

    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.bisections, 2u)
        << "batch of 4 -> halves -> poison singleton";
    EXPECT_EQ(stats.poison_isolated, 1u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.failed_requests, 1u);
    EXPECT_EQ(stats.failed_batches, 1u)
        << "only the isolated poison singleton is a terminal failure";
}

// ---------------------------------------------------------------------
// Circuit breaker wired into the runtime.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, BreakerPinsTrafficDegradedThenRecovers)
{
    ManualClock clock;
    BreakableExecutor executor;
    executor.setBroken(true);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.breaker = true;
    LiveServingRuntime runtime(cfg, executor, &clock);

    // kBreakerMinSamples broken-primary batches trip the breaker (each
    // fails its primary attempt, then succeeds degraded on the retry
    // ladder).
    for (std::size_t i = 0; i < kBreakerMinSamples; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 30 + i));
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->get().status, LiveRequestStatus::Completed);
    }
    EXPECT_EQ(runtime.breakerState(), BreakerState::Open);
    const std::size_t primary_before = executor.primaryCalls();

    // While open, batches short-circuit to the degraded path: no
    // primary attempt, no retry burned.
    auto f3 = runtime.submit(requestTensor(2, 4, 33));
    ASSERT_TRUE(f3.has_value());
    EXPECT_EQ(f3->get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(executor.primaryCalls(), primary_before)
        << "open breaker must not touch the primary path";
    EXPECT_EQ(runtime.breakerState(), BreakerState::Open);

    // Cooldown elapses, the primary path heals, and enough successful
    // probes close it.
    clock.advance(1.1 * kBreakerCooldownS);
    executor.setBroken(false);
    for (std::size_t i = 0; i < kBreakerProbeSuccesses; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 50 + i));
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->get().status, LiveRequestStatus::Completed);
    }
    EXPECT_EQ(runtime.breakerState(), BreakerState::Closed);
    EXPECT_EQ(executor.primaryCalls(),
              primary_before + kBreakerProbeSuccesses);

    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.breaker_opens, 1u);
    EXPECT_EQ(stats.completed,
              kBreakerMinSamples + 1 + kBreakerProbeSuccesses);
    EXPECT_EQ(stats.degraded_batches, kBreakerMinSamples)
        << "only the pre-trip batches needed the retry ladder";
}

// ---------------------------------------------------------------------
// Admission shedding and overload control.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, ExpiredBudgetShedsAtAdmission)
{
    ManualClock clock;
    EchoExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    // Budget 0: the deadline has already passed at admission. The
    // request must not consume a queue slot or a batch slot.
    auto doomed = runtime.submit(requestTensor(2, 4, 40), 0,
                                 /*deadline_budget_s=*/0.0);
    ASSERT_TRUE(doomed.has_value())
        << "an admission shed still returns a (resolved) future";
    EXPECT_EQ(doomed->wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(doomed->get().status, LiveRequestStatus::Shed);

    auto healthy = runtime.submit(requestTensor(2, 4, 41));
    ASSERT_TRUE(healthy.has_value());
    EXPECT_EQ(healthy->get().status, LiveRequestStatus::Completed);

    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.shed_admission, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.rejected, 0u)
        << "a shed is a resolved outcome, not an admission rejection";
}

TEST(ServingLiveResilience, AimdLimitRejectsFloodAndDecaysOnFailure)
{
    ManualClock clock;
    GateExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.workers = 1;
    cfg.queue_capacity = 64;
    cfg.faults.max_retries = 0;
    cfg.resilience.aimd = true;
    LiveServingRuntime runtime(cfg, executor, &clock);
    const double cap = runtime.stats().inflight_limit;
    ASSERT_GT(cap, 8.0 * kAimdMinInflight)
        << "the limit starts at the derived pipeline capacity";

    // Each failed batch multiplies the limit by kAimdDecrease until it
    // reaches the kAimdMinInflight floor.
    executor.setFailing(true);
    double expected = cap;
    for (std::size_t failed = 1; expected > kAimdMinInflight; ++failed) {
        auto f = runtime.submit(requestTensor(2, 4, 60));
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->get().status, LiveRequestStatus::Failed);
        awaitBatches(runtime, failed);
        expected = std::max(expected * kAimdDecrease, kAimdMinInflight);
        EXPECT_DOUBLE_EQ(runtime.stats().inflight_limit, expected);
    }

    // The floor admits exactly kAimdMinInflight held requests; the
    // next one is over the limit.
    executor.setFailing(false);
    const auto floor = static_cast<std::size_t>(kAimdMinInflight);
    std::vector<std::future<LiveRequestResult>> held;
    for (std::size_t i = 0; i < floor; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 61 + i));
        ASSERT_TRUE(f.has_value());
        held.push_back(std::move(*f));
    }
    EXPECT_FALSE(runtime.submit(requestTensor(2, 4, 70)).has_value())
        << "one request over the AIMD limit must be rejected";
    executor.release();
    for (auto &f : held)
        EXPECT_EQ(f.get().status, LiveRequestStatus::Completed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.overload_rejected, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_DOUBLE_EQ(stats.inflight_limit, 2.0 * kAimdMinInflight)
        << "each clean batch adds one to the limit";
}

// ---------------------------------------------------------------------
// Exception safety and chaos storms.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, NonStdExceptionStillResolvesEveryFuture)
{
    ManualClock clock;
    NonStdThrowExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 2;
    cfg.max_wait_s = 10.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f1 = runtime.submit(requestTensor(2, 4, 70));
    auto f2 = runtime.submit(requestTensor(2, 4, 71));
    ASSERT_TRUE(f1.has_value() && f2.has_value());
    // get() must return (status Failed), not throw or hang on a
    // broken promise, even though the executor throws an int.
    EXPECT_EQ(f1->get().status, LiveRequestStatus::Failed);
    EXPECT_EQ(f2->get().status, LiveRequestStatus::Failed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.failed_requests, 2u);
    // Both singletons bottomed out of bisection as "poisonous".
    EXPECT_EQ(stats.bisections, 1u);
    EXPECT_EQ(stats.poison_isolated, 2u);
}

TEST(ServingLiveResilience, ChaosExceptionStormConservesRequests)
{
    ManualClock clock;
    BreakableExecutor executor; // never broken: counts degraded calls
    ChaosConfig chaos_cfg;
    chaos_cfg.seed = 99;
    chaos_cfg.exception_rate = 1.0;
    ChaosInjector chaos(chaos_cfg);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock, &chaos);

    constexpr std::size_t kRequests = 16;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 80 + i));
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, LiveRequestStatus::Completed)
            << "a primary-path storm always recovers on the fallback";
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    const std::size_t admitted = stats.submitted - stats.rejected;
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              admitted)
        << "conservation invariant";
    EXPECT_EQ(stats.degraded_batches, kRequests)
        << "every batch needed its fallback retry";
    EXPECT_EQ(executor.degradedCalls(), kRequests);
}

TEST(ServingLiveResilience, HeartbeatLossStormStillConserves)
{
    // heartbeat_loss_rate=1 backdates every published heartbeat, so
    // the watchdog seizes healthy workers (false positives). Outcome
    // counts are racy by design; the conservation invariant and full
    // future resolution are not.
    ManualClock clock;
    EchoExecutor executor;
    ChaosConfig chaos_cfg;
    chaos_cfg.heartbeat_loss_rate = 1.0;
    ChaosInjector chaos(chaos_cfg);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.workers = 2;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.watchdog = true;
    LiveServingRuntime runtime(cfg, executor, &clock, &chaos);

    constexpr std::size_t kRequests = 8;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 90 + i));
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    std::size_t resolved = 0;
    for (auto &f : futures) {
        const LiveRequestResult r = f.get(); // must not hang or throw
        (void)r;
        ++resolved;
    }
    EXPECT_EQ(resolved, kRequests);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    const std::size_t admitted = stats.submitted - stats.rejected;
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              admitted);
}

/**
 * Seeded chaos storm over every combination of the resilience
 * switches. Stalls, primary-path exceptions, slow batches, heartbeat
 * losses, poison requests, and tight deadlines all fire at once. The
 * executor holds each batch for real time so the watchdog's real-time
 * polls seize batches whose heartbeat was lost, and requests arrive in
 * waves so failures of one wave shrink the AIMD limit the next wave
 * meets. Which request ends in which status depends on thread
 * interleaving, so the test asserts only what must hold under any
 * interleaving: every future resolves exactly once, the tally of
 * terminal statuses equals stats(), and completed + timed_out + shed +
 * failed == admitted.
 */
using StormParams = std::tuple<bool, bool, bool, std::uint64_t>;
using ChaosStorm = ::testing::TestWithParam<StormParams>;

TEST_P(ChaosStorm, EveryRequestResolvesExactlyOnce)
{
    const auto [watchdog, breaker, aimd, seed] = GetParam();
    ManualClock clock;
    PoisonExecutor executor;
    executor.busy = std::chrono::microseconds(500);
    ChaosConfig chaos_cfg;
    chaos_cfg.seed = seed;
    chaos_cfg.worker_stall_rate = 0.1;
    chaos_cfg.exception_rate = 0.5;
    chaos_cfg.slow_rate = 0.3;
    chaos_cfg.heartbeat_loss_rate = 0.3;
    ChaosInjector chaos(chaos_cfg);
    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 0.05;
    cfg.workers = 2;
    cfg.deadline_s = 0.5;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.watchdog = watchdog;
    cfg.resilience.breaker = breaker;
    cfg.resilience.aimd = aimd;
    LiveServingRuntime runtime(cfg, executor, &clock, &chaos);

    constexpr std::size_t kWaves = 4;
    constexpr std::size_t kWave = 8;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t w = 0; w < kWaves; ++w) {
        const std::size_t first = futures.size();
        for (std::size_t i = 0; i < kWave; ++i) {
            Tensor input = requestTensor(2, 4, seed * 100 + w * kWave + i);
            if (i == 3)
                input(0, 0) = PoisonExecutor::kPoison;
            auto f = runtime.submit(std::move(input));
            if (f.has_value())
                futures.push_back(std::move(*f));
        }
        // Virtual max-wait never elapses on its own: advance by it so
        // a partial batch (AIMD rejected part of the wave) flushes.
        clock.advance(cfg.max_wait_s);
        for (std::size_t i = first; i < futures.size(); ++i)
            futures[i].wait();
    }
    runtime.drain();

    std::set<std::uint64_t> ids;
    std::map<LiveRequestStatus, std::size_t> tally;
    for (auto &f : futures) {
        const LiveRequestResult r = f.get();
        EXPECT_TRUE(ids.insert(r.request_id).second)
            << "request " << r.request_id << " resolved twice";
        ++tally[r.status];
    }
    const LiveServingStats stats = runtime.stats();
    const std::size_t admitted = stats.submitted - stats.rejected;
    EXPECT_EQ(stats.submitted, kWaves * kWave);
    EXPECT_EQ(futures.size(), admitted);
    EXPECT_EQ(tally[LiveRequestStatus::Completed], stats.completed);
    EXPECT_EQ(tally[LiveRequestStatus::TimedOut], stats.timed_out);
    EXPECT_EQ(tally[LiveRequestStatus::Shed], stats.shed);
    EXPECT_EQ(tally[LiveRequestStatus::Failed], stats.failed_requests);
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              admitted)
        << "conservation invariant";
}

/** All 8 combinations of the three switches x 4 chaos seeds. */
auto
stormParams()
{
    const auto on_off = ::testing::Bool();
    return ::testing::Combine(on_off, on_off, on_off,
                              ::testing::Values(1, 99, 404, 7));
}

std::string
stormName(const ::testing::TestParamInfo<StormParams> &info)
{
    const auto [watchdog, breaker, aimd, seed] = info.param;
    std::string name = watchdog ? "wd" : "nowd";
    name += breaker ? "_brk" : "_nobrk";
    name += aimd ? "_aimd" : "_noaimd";
    return name + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(ServingLiveResilience, ChaosStorm, stormParams(),
                         stormName);

} // namespace
} // namespace pimdl
