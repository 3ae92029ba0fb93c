/**
 * @file
 * Order statistics the benchmark reports: median, quartiles, the
 * tail-percentile rule (the highest percentile, at most p99, that
 * still has at least ten samples beyond it), due-time latency, and the
 * host stalls to take out of it.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Samples a tail percentile must leave beyond it. */
inline constexpr std::size_t kTailBeyond = 10;

/** Median of @p values (mean of the middle pair for even counts). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * First, second and third quartile by the exclusive method, exactly as
 * Python's statistics.quantiles(values, n=4) computes them: cut i sits
 * at 1-based position i * (n + 1) / 4 of the sorted samples,
 * interpolated linearly between its neighbours (and extrapolated from
 * the outermost pair when it falls outside them). Needs two samples.
 */
inline std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.size() < 2)
        throw std::invalid_argument("quartiles need two samples");
    std::sort(values.begin(), values.end());
    const long long n = static_cast<long long>(values.size());
    std::array<double, 3> cuts{};
    for (long long i = 1; i <= 3; ++i) {
        const long long pos = i * (n + 1);
        const long long j = std::clamp(pos / 4, 1LL, n - 1);
        const long long delta = pos - j * 4;
        cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                       values[j] * static_cast<double>(delta)) /
                      4.0;
    }
    return cuts;
}

/** A tail latency and the percentile it was taken at. */
struct Tail
{
    double value = 0.0;
    /** Percentile in (0, 100] the value sits at. */
    double percentile = 0.0;
    std::size_t samples = 0;
};

/**
 * The tail-percentile rule. With n samples, the nearest-rank
 * percentile q leaves n - ceil(q * n) samples beyond it; the rule
 * picks q = min(0.99, (n - 10) / n), so p99 is reported from 1000
 * samples up and a lower percentile below that. With fewer than 20
 * samples no percentile at or above the median keeps ten beyond it,
 * and the median is returned.
 */
inline Tail
tailPercentile(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("tail of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    Tail tail;
    tail.samples = n;
    if (n < 2 * kTailBeyond) {
        tail.value = median(values);
        tail.percentile = 50.0;
        return tail;
    }
    // Nearest rank of p99 (ceil(0.99 n), in integers), capped so that
    // kTailBeyond samples stay above it.
    const std::size_t p99_rank = (99 * n + 99) / 100;
    const std::size_t rank = std::min(p99_rank, n - kTailBeyond);
    tail.value = values[rank - 1];
    tail.percentile =
        rank == p99_rank ? 99.0
                         : 100.0 * static_cast<double>(rank) /
                               static_cast<double>(n);
    return tail;
}

/**
 * Latency of each open-loop request measured from when it was due to
 * be sent, so a late generator's stall counts against every request
 * it delayed. @p due and @p done are on one clock; negative entries of
 * @p done mark requests that never completed and are skipped.
 */
inline std::vector<double>
dueTimeLatencies(const std::vector<double> &due,
                 const std::vector<double> &done)
{
    if (due.size() != done.size())
        throw std::invalid_argument("due/done size mismatch");
    std::vector<double> out;
    out.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i)
        if (done[i] >= 0.0)
            out.push_back(done[i] - due[i]);
    return out;
}

/** A stretch of work on one clock, and how much of it the host took
 * away (a stall). */
struct BatchStall
{
    double start_s = 0.0;
    double end_s = 0.0;
    double stall_s = 0.0;
};

/**
 * Stall time of @p batches (sorted by start, not overlapping) inside
 * [@p from, @p to], each batch's stall prorated by how much of the
 * batch the interval covers.
 */
inline double
stallWithin(const std::vector<BatchStall> &batches, double from, double to)
{
    double stall = 0.0;
    const auto first = std::lower_bound(
        batches.begin(), batches.end(), from,
        [](const BatchStall &b, double t) { return b.end_s < t; });
    for (auto b = first; b != batches.end() && b->start_s < to; ++b) {
        const double length = b->end_s - b->start_s;
        const double overlap =
            std::min(to, b->end_s) - std::max(from, b->start_s);
        if (length > 0.0 && overlap > 0.0)
            stall += b->stall_s * overlap / length;
    }
    return stall;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
