/**
 * @file
 * Resilience policies of the live serving control plane.
 *
 * The data plane already degrades gracefully (checksum -> retry ->
 * remap -> host fallback, §8) but the control plane around it was
 * fragile: a worker hung inside a batch stalled its slot forever, a
 * poison request burned every batch it rode in, the PimLut->HostLut
 * fallback was re-decided per batch with no memory, and admission was
 * a static queue bound that kept accepting more than the pipeline
 * could drain. This header holds the on/off switches, the tuning
 * constants, and the circuit breaker that fix those failure modes;
 * the mechanisms (watchdog thread, bisection, AIMD limit) live in the
 * runtime (serving_live.cc). The constants are the values the chaos
 * soak (bench_chaos) was tuned and ablated with. Everything is driven
 * by the injectable Clock so ManualClock tests stay deterministic.
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

/** Watchdog hang threshold as a multiple of the expected batch
 * latency (an EWMA of served batches). */
inline constexpr double kHangTimeoutFactor = 8.0;
/** Floor of the hang threshold, seconds — protects cold starts where
 * no latency estimate exists yet. */
inline constexpr double kMinHangTimeoutS = 0.05;
/** Real-time poll cadence of the watchdog thread, seconds. The watchdog
 * always sleeps real time and re-reads the (possibly virtual) clock,
 * mirroring the forming worker's poll-slice pattern. */
inline constexpr double kWatchdogPollS = 2e-3;

/** Lower bound of the AIMD in-flight limit (never starve fully); the
 * upper bound is the runtime's derived pipeline capacity. */
inline constexpr double kAimdMinInflight = 4.0;
/** Multiplicative decrease of the in-flight limit on batch
 * failure/hang/retry. */
inline constexpr double kAimdDecrease = 0.5;

/** Sliding window of recent primary-path outcomes. */
inline constexpr std::size_t kBreakerWindow = 16;
/** Outcomes required before the failure rate can trip the breaker. */
inline constexpr std::size_t kBreakerMinSamples = 8;
/** Failure fraction of the window that opens the breaker. */
inline constexpr double kBreakerFailureThreshold = 0.5;
/** Seconds spent Open before probing (HalfOpen). */
inline constexpr double kBreakerCooldownS = 0.1;
/** Primary probes admitted while HalfOpen. */
inline constexpr std::size_t kBreakerProbes = 3;
/** Probe successes required to close again. */
inline constexpr std::size_t kBreakerProbeSuccesses = 2;

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
    /** A disabled breaker always allows the primary path. */
    CircuitBreaker(bool enabled, Clock *clock,
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

  private:
    void transitionLocked(BreakerState next) PIMDL_REQUIRES(mu_);
    void pushOutcomeLocked(bool failure) PIMDL_REQUIRES(mu_);

    const bool enabled_;
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

/**
 * The resilience policy of one LiveServingRuntime: three independent
 * switches. Poison bisection is always on; the tuning of every
 * mechanism is the constants above.
 */
struct ResilienceConfig
{
    /** Watchdog thread that seizes batches from hung workers and
     * respawns the slot; the batch retries on the fault ladder. */
    bool watchdog = false;
    /** Circuit breaker pinning sustained primary-path failures to the
     * degraded path. */
    bool breaker = false;
    /** AIMD bound on admitted-but-unresolved requests. */
    bool aimd = false;
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_RESILIENCE_H
