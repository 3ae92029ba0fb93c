/**
 * @file
 * Deterministic thread-level chaos injection for the live serving
 * runtime.
 *
 * fault.h injects *data-plane* events (PE crashes, bit flips, transfer
 * corruption) into the simulated PIM substrate; this module injects
 * *control-plane* misbehaviour into the real threads of
 * LiveServingRuntime: workers that stall mid-batch, executors that
 * throw in storms, batches that run slow, and heartbeats that go
 * missing. These are the failure shapes the resilience layer
 * (watchdog, breaker, bisection, AIMD limit) exists to survive,
 * so the chaos harness (bench_chaos) drives escalating rates of them
 * and asserts the runtime's conservation and goodput invariants hold.
 *
 * Determinism contract: identical to fault.h — every draw is a pure
 * counter-based hash of (seed, stream, batch id, attempt) via
 * faultHashUniform, no shared RNG state, so a chaos soak replays
 * bit-identically for a fixed seed. Draws are coupled across rates
 * (event fires iff u < rate), so raising a rate only adds events —
 * the monotone-degradation assertion in bench_chaos depends on this.
 */

#ifndef PIMDL_FAULT_CHAOS_H
#define PIMDL_FAULT_CHAOS_H

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace pimdl {

/** Draw streams of the chaos events. fault.h owns streams 1-6 and the
 * serving batch stream 101; chaos uses 201+ so the two injectors never
 * correlate. */
inline constexpr std::uint64_t kChaosWorkerStallStream = 201;
inline constexpr std::uint64_t kChaosExceptionStream = 202;
inline constexpr std::uint64_t kChaosSlowStream = 203;
inline constexpr std::uint64_t kChaosHeartbeatStream = 204;

/** Stall duration of a worker-stall event, seconds — long enough to
 * trip the watchdog's hang floor, so stalls are seized and retried
 * instead of waited out. */
inline constexpr double kChaosWorkerStallS = 0.25;
/** Extra executor latency of a slow-batch event, seconds. */
inline constexpr double kChaosSlowExtraS = 10e-3;

/** Rates of the injectable chaos events. Exceptions fire only on
 * primary-path (non-degraded) attempts, modelling a faulty PIM path
 * with a healthy host fallback. */
struct ChaosConfig
{
    /** Root of every deterministic draw. */
    std::uint64_t seed = 0xc4a05eedULL;

    /** Per batch-attempt probability the worker stalls mid-batch. */
    double worker_stall_rate = 0.0;

    /** Per batch-attempt probability the primary-path executor
     * throws. */
    double exception_rate = 0.0;

    /** Per batch-attempt probability of extra executor latency. */
    double slow_rate = 0.0;

    /** Per batch probability the worker's heartbeat is lost (the
     * watchdog sees a stale timestamp even though the worker is
     * healthy — exercises false-positive seizure handling). */
    double heartbeat_loss_rate = 0.0;

    /** True when any event can fire. */
    bool
    anyRateSet() const
    {
        return worker_stall_rate > 0.0 || exception_rate > 0.0 ||
               slow_rate > 0.0 || heartbeat_loss_rate > 0.0;
    }

    /** Throws std::runtime_error on rates outside [0, 1]. */
    void validate() const;
};

/**
 * Seed-driven chaos oracle for the live runtime. All query methods
 * are const and pure in their arguments; concurrent workers may query
 * freely. Event counts are published under "chaos.*" when an event
 * fires (the query that decides an event also counts it, so callers
 * must query each (batch, attempt) key once — the runtime does).
 */
class ChaosInjector
{
  public:
    explicit ChaosInjector(ChaosConfig config);

    const ChaosConfig &config() const { return config_; }

    /** Seconds the worker must stall before attempt @p attempt of
     * batch @p batch (0 = no stall). */
    double stallSeconds(std::uint64_t batch, std::uint64_t attempt) const;

    /** Throw an injected exception on this attempt? Degraded
     * attempts never throw. */
    bool injectException(std::uint64_t batch, std::uint64_t attempt,
                         bool degraded) const;

    /** Extra executor seconds for this attempt (0 = full speed). */
    double slowExtraSeconds(std::uint64_t batch,
                            std::uint64_t attempt) const;

    /** Suppress the heartbeat update for this batch on @p worker? */
    bool dropHeartbeat(std::uint64_t worker, std::uint64_t batch) const;

  private:
    ChaosConfig config_;

    obs::Counter *stalls_ = nullptr;
    obs::Counter *exceptions_ = nullptr;
    obs::Counter *slow_batches_ = nullptr;
    obs::Counter *heartbeat_losses_ = nullptr;
};

} // namespace pimdl

#endif // PIMDL_FAULT_CHAOS_H
