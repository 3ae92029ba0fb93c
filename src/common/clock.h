/**
 * @file
 * Injectable time source for the live serving runtime.
 *
 * Deadlines, max-wait batching, and retry backoff must be testable
 * without depending on wall time: under CI load a slow runner would
 * otherwise flake every assertion about timeouts and shedding.
 * Components take a Clock pointer; production uses SteadyClock
 * (monotonic wall time) and tests use ManualClock, whose time only
 * moves when the test advances it — so a descheduled runner cannot
 * expire a deadline the test did not expire.
 */

#ifndef PIMDL_COMMON_CLOCK_H
#define PIMDL_COMMON_CLOCK_H

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

namespace pimdl {

/** Monotonic time source measured in seconds since a fixed epoch. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Seconds since an arbitrary fixed epoch (monotonic). */
    virtual double now() const = 0;

    /** Blocks (or virtually advances) for @p seconds. */
    virtual void sleepFor(double seconds) = 0;

    /**
     * True when time only moves via ManualClock::advance. Waiters must
     * then poll with short real waits instead of sleeping toward a
     * virtual deadline that never arrives on its own.
     */
    virtual bool isVirtual() const = 0;
};

/** Wall-clock time via std::chrono::steady_clock (production). */
class SteadyClock final : public Clock
{
  public:
    double
    now() const override
    {
        const auto t =
            std::chrono::steady_clock::now().time_since_epoch();
        return std::chrono::duration<double>(t).count();
    }

    void
    sleepFor(double seconds) override
    {
        if (seconds > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
    }

    bool isVirtual() const override { return false; }

    /** Process-wide default instance. */
    static SteadyClock &
    instance()
    {
        static SteadyClock clock;
        return clock;
    }
};

/**
 * Manually advanced time source (tests). Starts at zero and moves only
 * through advance()/sleepFor(); reads and advances are atomic, so any
 * thread may advance while runtime threads poll now().
 */
class ManualClock final : public Clock
{
  public:
    double
    now() const override
    {
        return static_cast<double>(nanos()) * 1e-9;
    }

    /** Virtual sleep: advances the clock without blocking. */
    void sleepFor(double seconds) override { advance(seconds); }

    bool isVirtual() const override { return true; }

    /**
     * Moves time forward by @p seconds (non-negative), rounded to the
     * nearest whole ns (truncating could land up to 1 ns short).
     */
    void
    advance(double seconds)
    {
        if (seconds > 0.0)
            advanceNanos(std::llround(seconds * 1e9));
    }

    /** Whole nanoseconds since the epoch. */
    std::int64_t
    nanos() const
    {
        return ns_.load(std::memory_order_acquire);
    }

    /** Moves time forward by @p ns (non-negative) nanoseconds. */
    void
    advanceNanos(std::int64_t ns)
    {
        ns_.fetch_add(ns, std::memory_order_acq_rel);
    }

  private:
    std::atomic<std::int64_t> ns_{0};
};

} // namespace pimdl

#endif // PIMDL_COMMON_CLOCK_H
