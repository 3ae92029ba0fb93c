/**
 * @file
 * Resilience policies of the live serving control plane.
 *
 * The data plane already degrades gracefully (checksum -> retry ->
 * remap -> host fallback, §8) but the control plane around it was
 * fragile: a worker hung inside a batch stalled its slot forever, a
 * poison request burned every batch it rode in, the PimLut->HostLut
 * fallback was re-decided per batch with no memory, and admission was
 * a static queue bound that kept accepting doomed requests. This
 * header holds the policy knobs and the circuit breaker that fix
 * those failure modes; the mechanisms (watchdog thread, bisection,
 * CoDel-style shedding, AIMD limit) live in the runtime
 * (serving_live.cc). Everything is driven by the injectable Clock so
 * ManualClock tests stay deterministic.
 */

#ifndef PIMDL_RUNTIME_RESILIENCE_H
#define PIMDL_RUNTIME_RESILIENCE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace pimdl {

/**
 * Worker supervision: a watchdog thread polls per-worker heartbeats
 * and abandons slots whose in-flight batch exceeds a multiple of the
 * expected batch latency; the slot is respawned and the batch fails
 * onto the existing retry ladder.
 */
struct WatchdogConfig
{
    bool enabled = false;
    /** Expected batch service time, seconds; 0 learns an EWMA from
     * observed service times (seeded by
     * OverloadConfig::assumed_batch_latency_s). */
    double expected_batch_latency_s = 0.0;
    /** Hang threshold as a multiple of the expected batch latency. */
    double hang_timeout_factor = 8.0;
    /** Floor of the hang threshold, seconds — protects cold starts
     * where no latency estimate exists yet. */
    double min_hang_timeout_s = 0.25;
    /** Real-time poll cadence of the watchdog thread, seconds. The
     * watchdog always sleeps real time and re-reads the (possibly
     * virtual) clock, mirroring the batcher's poll-slice pattern. */
    double poll_slice_s = 1e-3;

    /** Throws std::runtime_error with a field-naming message. */
    void validate() const;
};

/**
 * Adaptive overload control: CoDel-style admission shedding (reject
 * when the estimated queue delay already exceeds the request's
 * deadline budget) plus an AIMD bound on admitted-but-unresolved
 * requests.
 */
struct OverloadConfig
{
    /** Shed at admission when the estimated queue delay dooms the
     * request's deadline budget. */
    bool admission_shedding = false;
    /** Shed when deadline budget <= factor * estimated queue delay. */
    double shed_delay_factor = 1.0;
    /** Seeds the batch-service EWMA the delay estimate (and the
     * watchdog timeout) reads before any batch completed, seconds. */
    double assumed_batch_latency_s = 0.0;

    /** Enforce an AIMD limit on in-flight (admitted, unresolved)
     * requests. */
    bool aimd = false;
    /** Lower bound of the in-flight limit (never starve fully). */
    std::size_t aimd_min_inflight = 4;
    /** Upper bound; 0 derives the pipeline capacity at construction. */
    std::size_t aimd_max_inflight = 0;
    /** Multiplicative decrease on batch failure/hang/timeout. */
    double aimd_decrease = 0.5;

    /** Throws std::runtime_error with a field-naming message. */
    void validate() const;
};

/** State machine of the per-backend-path circuit breaker. */
enum class BreakerState
{
    /** Primary path healthy; failures tracked in a sliding window. */
    Closed,
    /** Primary path short-circuited to the fallback until cooldown. */
    Open,
    /** Cooldown elapsed: a bounded number of probes may try the
     * primary path again. */
    HalfOpen,
};

/** Human-readable state name. */
const char *breakerStateName(BreakerState state);

/** Failure-window and probe policy of the circuit breaker. */
struct CircuitBreakerConfig
{
    bool enabled = false;
    /** Sliding window of recent primary-path outcomes. */
    std::size_t window = 16;
    /** Outcomes required before the failure rate can trip the
     * breaker. */
    std::size_t min_samples = 8;
    /** Failure fraction of the window that opens the breaker. */
    double failure_threshold = 0.5;
    /** Seconds spent Open before probing (HalfOpen). */
    double open_cooldown_s = 0.25;
    /** Primary probes admitted while HalfOpen. */
    std::size_t half_open_probes = 3;
    /** Probe successes required to close again (<= probes). */
    std::size_t half_open_successes = 2;

    /** Throws std::runtime_error with a field-naming message. */
    void validate() const;
};

/**
 * Per-backend-path circuit breaker (Closed -> Open -> HalfOpen).
 * Wraps the runtime's primary (PimLut) path: sustained primary
 * failures open the breaker and pin traffic to the degraded fallback
 * without paying detect+retry per batch; after a cooldown a few
 * probes test the primary and either close the breaker or re-open
 * it. Publishes its state and transition counts under
 * "<metric_prefix>.{state,opens,closes,probes}".
 *
 * Thread-safe; time comes from the injected Clock so ManualClock
 * tests control the cooldown.
 */
class CircuitBreaker
{
  public:
    CircuitBreaker(const CircuitBreakerConfig &config, Clock *clock,
                   const std::string &metric_prefix);

    /** True when the caller may run the primary path now. Always true
     * when disabled. HalfOpen admits a bounded number of probes. */
    bool allowPrimary() PIMDL_EXCLUDES(mu_);

    /** Outcome of a primary-path attempt admitted by allowPrimary. */
    void recordSuccess() PIMDL_EXCLUDES(mu_);
    void recordFailure() PIMDL_EXCLUDES(mu_);

    BreakerState state() const PIMDL_EXCLUDES(mu_);
    /** Times the breaker opened over its lifetime. */
    std::size_t opens() const PIMDL_EXCLUDES(mu_);

    const CircuitBreakerConfig &config() const { return config_; }

  private:
    void transitionLocked(BreakerState next) PIMDL_REQUIRES(mu_);
    void pushOutcomeLocked(bool failure) PIMDL_REQUIRES(mu_);

    const CircuitBreakerConfig config_;
    Clock *clock_;

    mutable Mutex mu_{"resilience.breaker"};
    BreakerState state_ PIMDL_GUARDED_BY(mu_) = BreakerState::Closed;
    /** Recent primary outcomes, true = failure (Closed only). */
    std::deque<bool> outcomes_ PIMDL_GUARDED_BY(mu_);
    std::size_t window_failures_ PIMDL_GUARDED_BY(mu_) = 0;
    double opened_at_s_ PIMDL_GUARDED_BY(mu_) = 0.0;
    std::size_t probes_issued_ PIMDL_GUARDED_BY(mu_) = 0;
    std::size_t probe_successes_ PIMDL_GUARDED_BY(mu_) = 0;
    std::size_t opens_ PIMDL_GUARDED_BY(mu_) = 0;

    obs::Gauge *state_gauge_ = nullptr;
    obs::Counter *opens_counter_ = nullptr;
    obs::Counter *closes_counter_ = nullptr;
    obs::Counter *probes_counter_ = nullptr;
};

/** The full resilience policy of one LiveServingRuntime. */
struct ResilienceConfig
{
    WatchdogConfig watchdog;
    CircuitBreakerConfig breaker;
    OverloadConfig overload;
    /** Bisect a batch that exhausted its retries into sub-batches
     * until the poisonous request(s) are isolated and failed
     * individually, instead of failing the whole batch. */
    bool bisect_poison = true;

    /** Throws std::runtime_error with a field-naming message. */
    void validate() const;
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_RESILIENCE_H
