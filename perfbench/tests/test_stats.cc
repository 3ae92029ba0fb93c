/**
 * @file
 * Tests of the benchmark's own statistics: median and quartile
 * helpers (checked against Python's statistics module), the
 * tail-percentile rule, the open-loop schedule, due-time latency
 * under an injected generator stall, host stalls taken out of it, and
 * the host-speed scale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/clock.h"
#include "host_probe.h"
#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PerfbenchStats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 4, 2, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({3.5, 1.25, 9.0, 4.75}), 4.125);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfbenchStats, QuartilesMatchPythonExclusiveMethod)
{
    // Expected values from statistics.quantiles(data, n=4).
    const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(a[0], 2.75);
    EXPECT_DOUBLE_EQ(a[1], 5.5);
    EXPECT_DOUBLE_EQ(a[2], 8.25);
    const auto b = quartiles({3.5, 1.25, 9.0, 4.75});
    EXPECT_DOUBLE_EQ(b[0], 1.8125);
    EXPECT_DOUBLE_EQ(b[1], 4.125);
    EXPECT_DOUBLE_EQ(b[2], 7.9375);
    // Two samples: Python extrapolates past both ends.
    const auto c = quartiles({2.0, 8.0});
    EXPECT_DOUBLE_EQ(c[0], 0.5);
    EXPECT_DOUBLE_EQ(c[1], 5.0);
    EXPECT_DOUBLE_EQ(c[2], 9.5);
    EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

/** Samples strictly greater than @p value. */
std::size_t
beyond(const std::vector<double> &values, double value)
{
    return static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [value](double v) { return v > value; }));
}

std::vector<double>
oneToN(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(PerfbenchStats, TailIsP99FromOneThousandSamples)
{
    const auto v = oneToN(1000);
    const Tail tail = tailPercentile(v);
    EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
    EXPECT_DOUBLE_EQ(tail.value, 990.0);
    EXPECT_EQ(beyond(v, tail.value), kTailBeyond);
    EXPECT_EQ(tail.samples, 1000u);

    const Tail big = tailPercentile(oneToN(5000));
    EXPECT_DOUBLE_EQ(big.percentile, 99.0);
    EXPECT_DOUBLE_EQ(big.value, 4950.0);
}

TEST(PerfbenchStats, TailKeepsTenSamplesBeyondBelowOneThousand)
{
    for (std::size_t n = 20; n <= 3000; n += 7) {
        const auto v = oneToN(n);
        const Tail tail = tailPercentile(v);
        ASSERT_GE(beyond(v, tail.value), kTailBeyond) << n;
        ASSERT_LE(tail.percentile, 99.0) << n;
        // Highest such percentile: one rank higher either leaves fewer
        // than ten beyond or passes p99.
        const bool next_too_few = beyond(v, tail.value + 1) < kTailBeyond;
        const bool next_past_p99 =
            100.0 * (tail.value + 1) / static_cast<double>(n) > 99.0;
        ASSERT_TRUE(next_too_few || next_past_p99) << n;
    }
    const Tail t300 = tailPercentile(oneToN(300));
    EXPECT_DOUBLE_EQ(t300.value, 290.0);
    EXPECT_NEAR(t300.percentile, 96.667, 1e-3);
}

TEST(PerfbenchStats, TailFallsBackToMedianWithFewSamples)
{
    const Tail tail = tailPercentile({4, 1, 3, 2, 5});
    EXPECT_DOUBLE_EQ(tail.value, 3.0);
    EXPECT_DOUBLE_EQ(tail.percentile, 50.0);
}

TEST(PerfbenchLoadgen, ScheduleIsSeededSortedAndOnePerSlot)
{
    const auto a = openLoopSchedule(34.0, 30.0, 9);
    ASSERT_EQ(a.size(), 1020u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], static_cast<double>(i) / 34.0 - 1e-12) << i;
        EXPECT_LT(a[i], static_cast<double>(i + 1) / 34.0 + 1e-12) << i;
    }
    EXPECT_LT(a.back(), 30.0);
    EXPECT_EQ(a, openLoopSchedule(34.0, 30.0, 9));
    EXPECT_NE(a, openLoopSchedule(34.0, 30.0, 10));
}

TEST(PerfbenchLoadgen, DueTimeLatencyChargesAnInjectedGeneratorStall)
{
    // Twenty requests due every 10 ms; sending request 5 stalls the
    // generator for 100 ms; every request is served 1 ms after it is
    // sent.
    pimdl::ManualClock clock;
    std::vector<double> offsets;
    for (int i = 0; i < 20; ++i)
        offsets.push_back(0.010 * i);
    std::vector<double> done(offsets.size(), -1.0);
    const OpenLoopTimes times =
        runOpenLoop(offsets, clock, [&](std::size_t i) {
            done[i] = clock.now() + 0.001;
            if (i == 5)
                clock.advance(0.100);
        });

    const std::vector<double> due_latency =
        dueTimeLatencies(times.due_s, done);
    ASSERT_EQ(due_latency.size(), 20u);
    for (std::size_t i = 0; i <= 5; ++i)
        EXPECT_NEAR(due_latency[i], 0.001, 1e-9) << i;
    // Requests 6..14 fell due during the stall and went out at its end
    // (t = 0.150 s): each is charged the wait since its due time.
    for (std::size_t i = 6; i <= 14; ++i)
        EXPECT_NEAR(due_latency[i], 0.150 - 0.010 * i + 0.001, 1e-9) << i;
    for (std::size_t i = 15; i < 20; ++i)
        EXPECT_NEAR(due_latency[i], 0.001, 1e-9) << i;

    // Timed from the send instead, the stall would vanish.
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_NEAR(done[i] - times.sent_s[i], 0.001, 1e-9);
    const std::vector<double> lags = times.lags();
    EXPECT_NEAR(*std::max_element(lags.begin(), lags.end()), 0.090, 1e-9);

    // A request that never completed is left out, not counted as fast.
    done[3] = -1.0;
    EXPECT_EQ(dueTimeLatencies(times.due_s, done).size(), 19u);
}

TEST(PerfbenchStats, StallWithinProratesOverlappingBatches)
{
    // Batches [1, 2) with 0.4 s stalled, [3, 5) with 1.0 s, [6, 7) none.
    const std::vector<BatchStall> batches = {
        {1.0, 2.0, 0.4}, {3.0, 5.0, 1.0}, {6.0, 7.0, 0.0}};
    EXPECT_DOUBLE_EQ(stallWithin(batches, 0.0, 10.0), 1.4);
    EXPECT_DOUBLE_EQ(stallWithin(batches, 2.0, 3.0), 0.0); // between
    // A request due mid-batch sees the rest of it: half of [3, 5).
    EXPECT_DOUBLE_EQ(stallWithin(batches, 4.0, 5.5), 0.5);
    EXPECT_DOUBLE_EQ(stallWithin(batches, 1.5, 3.5), 0.2 + 0.25);
    EXPECT_DOUBLE_EQ(stallWithin({}, 0.0, 1.0), 0.0);
}

TEST(PerfbenchSpeedScale, FactorIsNominalOverMeasuredMedian)
{
    SpeedProbe probe;
    const ProbeShape shape{2, 4, 3};
    const ProbeTime nominal = SpeedProbe::nominal(shape);
    EXPECT_GT(nominal.wall_s, 0.0);
    EXPECT_GT(nominal.cpu_s, nominal.wall_s); // four threads at once

    SpeedScale scale(probe, shape);
    EXPECT_DOUBLE_EQ(scale.wallFactor(), 1.0); // no passes yet
    // A host at half speed in wall time, full speed in CPU time, with
    // one disturbed pass that the median ignores.
    for (int i = 0; i < 5; ++i)
        scale.record({2.0 * nominal.wall_s, nominal.cpu_s});
    scale.record({20.0 * nominal.wall_s, 10.0 * nominal.cpu_s});
    for (int i = 0; i < 5; ++i)
        scale.record({2.0 * nominal.wall_s, nominal.cpu_s});
    EXPECT_DOUBLE_EQ(scale.wallFactor(), 0.5);
    EXPECT_DOUBLE_EQ(scale.cpuFactor(), 1.0);
    EXPECT_DOUBLE_EQ(scale.wallFactorAt(5), 0.5);
}

TEST(PerfbenchSpeedScale, WindowFollowsADriftingHost)
{
    SpeedProbe probe;
    SpeedScale scale(probe, kSerialShape);
    const ProbeTime nominal = SpeedProbe::nominal(kSerialShape);
    // Twenty passes at nominal speed, then twenty at a third of it.
    for (int i = 0; i < 40; ++i) {
        const double slow = i < 20 ? 1.0 : 3.0;
        scale.record({slow * nominal.wall_s, slow * nominal.cpu_s});
    }
    // An operation between passes i and i + 1 sees passes i - 2 .. i + 3.
    EXPECT_DOUBLE_EQ(scale.wallFactorAt(0), 1.0);
    EXPECT_DOUBLE_EQ(scale.wallFactorAt(10), 1.0);
    EXPECT_DOUBLE_EQ(scale.cpuFactorAt(30), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(scale.wallFactorAt(39), 1.0 / 3.0);
    // Straddling the change: passes 17..22, half fast and half slow.
    EXPECT_DOUBLE_EQ(scale.wallFactorAt(19), 0.5);
    EXPECT_DOUBLE_EQ(scale.wallFactor(15, 16), 1.0);
}

TEST(PerfbenchSpeedScale, ProbePassesTakeTime)
{
    SpeedProbe probe;
    const ProbeTime serial = probe.run(kSerialShape);
    EXPECT_GT(serial.wall_s, 0.0);
    EXPECT_GT(serial.cpu_s, 0.0);
    const ProbeTime fan_out = probe.run({1, 2, 1});
    EXPECT_GT(fan_out.cpu_s, 0.0);
    EXPECT_DOUBLE_EQ(probe.tableMb(), 16.0);
}

} // namespace
} // namespace perfbench
