/**
 * @file
 * Open-loop load generation: a seeded arrival schedule and a sender
 * that fires each request at its due time regardless of how the
 * system keeps up, recording how late it actually sent.
 */

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/**
 * Arrival offsets (seconds from the start) of an open loop at @p rate
 * requests/s over @p seconds: exactly round(rate * seconds) arrivals,
 * one placed uniformly at random inside each 1/rate slot, so gaps range
 * from 0 to 2/rate. Unlike a Poisson stream it has no multi-request
 * clumps: where those happen to fall moves a run's p99 by about 15%
 * between seeds at this load, more than the benchmark can afford.
 * Every seed offers the same load; the seed picks the spacing.
 */
inline std::vector<double>
openLoopSchedule(double rate, double seconds, std::uint64_t seed)
{
    const auto count =
        static_cast<std::size_t>(std::llround(rate * seconds));
    const double slot = 1.0 / rate;
    std::mt19937_64 engine(seed);
    std::uniform_real_distribution<double> within(0.0, slot);
    std::vector<double> offsets(count);
    for (std::size_t i = 0; i < count; ++i)
        offsets[i] = static_cast<double>(i) * slot + within(engine);
    return offsets;
}

/** When each request was due and when the generator sent it, both on
 * the generator's clock. */
struct OpenLoopTimes
{
    std::vector<double> due_s;
    std::vector<double> sent_s;

    /** How late the generator sent each request, seconds. */
    std::vector<double>
    lags() const
    {
        std::vector<double> out(due_s.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = sent_s[i] - due_s[i];
        return out;
    }
};

/**
 * Sends request i (calling @p send(i)) at start + offsets[i] on
 * @p clock. A send that blocks delays every later send; the recorded
 * due times keep that delay visible.
 */
template <typename Send>
OpenLoopTimes
runOpenLoop(const std::vector<double> &offsets, pimdl::Clock &clock,
            Send &&send)
{
    OpenLoopTimes times;
    times.due_s.reserve(offsets.size());
    times.sent_s.reserve(offsets.size());
    const double start = clock.now();
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const double due = start + offsets[i];
        const double wait = due - clock.now();
        if (wait > 0.0)
            clock.sleepFor(wait);
        times.due_s.push_back(due);
        times.sent_s.push_back(clock.now());
        send(i);
    }
    return times;
}

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
