#include "host_probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <map>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "common/parallel.h"
#include "stats.h"

namespace perfbench {

int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
loadAverage1m()
{
    std::ifstream in("/proc/loadavg");
    double load = -1.0;
    if (!(in >> load))
        return -1.0;
    return load;
}

CpuJiffies
readCpuJiffies()
{
    CpuJiffies out;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return out;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    std::uint64_t value = 0;
    for (int i = 0; i < 8 && (fields >> value); ++i) {
        out.total += value;
        if (i == 7) {
            out.steal = value;
            out.valid = true;
        }
    }
    return out;
}

double
stealPercent(const CpuJiffies &before, const CpuJiffies &after)
{
    if (!before.valid || !after.valid || after.total <= before.total)
        return -1.0;
    return 100.0 * static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

PhaseClock::PhaseClock()
    : wall0_(wallSeconds()), cpu0_(processCpuSeconds()),
      jiffies0_(readCpuJiffies())
{}

double
PhaseClock::wallElapsed() const
{
    return wallSeconds() - wall0_;
}

double
PhaseClock::cpuElapsed() const
{
    return processCpuSeconds() - cpu0_;
}

double
PhaseClock::stealPct() const
{
    return stealPercent(jiffies0_, readCpuJiffies());
}

double
PhaseClock::busyPct() const
{
    const double wall = wallElapsed();
    const auto threads = static_cast<double>(pimdl::parallelWorkerCount());
    return wall > 0.0 ? 100.0 * cpuElapsed() / (wall * threads) : 0.0;
}

namespace {

constexpr std::size_t kProbeTableFloats = std::size_t{4} << 20; // 16 MiB
constexpr std::size_t kChunkGathers = std::size_t{1} << 18;
constexpr std::size_t kChunkLane = 1024;
constexpr std::size_t kChunkRounds = 4800;
constexpr std::size_t kChunkSorted = std::size_t{1} << 15;
constexpr std::size_t kChunkMapOps = 4000;

std::uint64_t
nextRandom(std::uint64_t &x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
}

/**
 * @p chunks chunks of probe work. A chunk has three parts of about the
 * same length, for the three kinds of work the workloads do: random
 * reads past the private caches (LUT gathers), vectorisable
 * multiply-adds (distance and GEMM kernels), and branchy scalar code
 * that allocates (sorting, ordered maps: the tuner and planner).
 * Returns a value that depends on all of it, so none of it can be
 * optimised away.
 */
float
probeWork(const std::vector<float> &table, std::size_t chunks,
          std::uint64_t seed)
{
    float sum = 0.0f;
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    std::vector<float> lane(kChunkLane), step(kChunkLane);
    for (std::size_t j = 0; j < kChunkLane; ++j)
        step[j] = static_cast<float>(j % 5) * 0.0625f;
    for (std::size_t c = 0; c < chunks; ++c) {
        for (std::size_t i = 0; i < kChunkGathers; ++i)
            sum += table[(nextRandom(x) >> 24) % kProbeTableFloats];

        for (std::size_t j = 0; j < kChunkLane; ++j)
            lane[j] = static_cast<float>(j % 7) * 0.125f;
        for (std::size_t r = 0; r < kChunkRounds; ++r)
            for (std::size_t j = 0; j < kChunkLane; ++j)
                lane[j] = lane[j] * 0.999f + step[j];
        for (const float v : lane)
            sum += v;

        std::vector<std::uint32_t> sorted(kChunkSorted);
        for (std::uint32_t &v : sorted)
            v = static_cast<std::uint32_t>(nextRandom(x) >> 33);
        std::sort(sorted.begin(), sorted.end());
        std::map<std::uint32_t, std::uint32_t> counts;
        for (std::size_t i = 0; i < kChunkMapOps; ++i)
            ++counts[static_cast<std::uint32_t>(nextRandom(x) >> 52)];
        std::size_t hits = counts.size();
        for (std::size_t i = 0; i < kChunkMapOps; ++i)
            hits += std::binary_search(
                sorted.begin(), sorted.end(),
                static_cast<std::uint32_t>(nextRandom(x) >> 33));
        sum += static_cast<float>(hits);
    }
    return sum;
}

/** Median of @p field over passes [first, last], clamped. */
template <typename F>
double
medianPass(const std::vector<ProbeTime> &passes, std::size_t first,
           std::size_t last, F field)
{
    std::vector<double> values;
    for (std::size_t i = first; i <= last && i < passes.size(); ++i)
        values.push_back(field(passes[i]));
    return values.empty() ? 0.0 : median(std::move(values));
}

} // namespace

ProbeTime
SpeedProbe::nominal(const ProbeShape &shape)
{
    // Measured on a 4-vCPU Xeon host: a chunk takes about 6.5 ms,
    // and a fan-out ends a little after its slowest thread.
    constexpr double kChunkS = 0.0065;
    const auto serial = static_cast<double>(shape.serial);
    const auto parallel = static_cast<double>(shape.parallel);
    const auto threads = static_cast<double>(shape.threads);
    const double fan_out = shape.threads > 1 ? 1.1 : 1.0;
    return {kChunkS * (serial + fan_out * parallel),
            kChunkS * (serial + threads * parallel)};
}

SpeedProbe::SpeedProbe() : table_(kProbeTableFloats)
{
    for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i] = static_cast<float>(i % 251) * (1.0f / 256.0f);
}

double
SpeedProbe::tableMb() const
{
    return static_cast<double>(table_.size() * sizeof(float)) /
           (1024.0 * 1024.0);
}

ProbeTime
SpeedProbe::run(const ProbeShape &shape)
{
    std::vector<float> sums(shape.threads + 1, 0.0f);
    const double wall0 = wallSeconds();
    const double cpu0 = processCpuSeconds();
    sums[0] = probeWork(table_, shape.serial, 1);
    if (shape.parallel > 0) {
        std::vector<std::thread> pool;
        pool.reserve(shape.threads);
        std::atomic<bool> failed{false};
        for (std::size_t t = 0; t < shape.threads; ++t)
            pool.emplace_back([&, t] {
                try {
                    sums[t + 1] = probeWork(table_, shape.parallel, t + 2);
                } catch (...) {
                    failed = true;
                }
            });
        for (std::thread &t : pool)
            t.join();
        if (failed)
            throw std::runtime_error("speed probe thread failed");
    }
    const ProbeTime pass{wallSeconds() - wall0, processCpuSeconds() - cpu0};
    for (std::size_t i = 0; i < sums.size(); ++i)
        if (!(sums[i] > 0.0f) && (i == 0 ? shape.serial : shape.parallel))
            throw std::logic_error("speed probe computed nothing");
    return pass;
}

ProbeTime
SpeedScale::sample()
{
    record(probe_.run(shape_));
    return passes_.back();
}

double
SpeedScale::wallFactor(std::size_t first, std::size_t last) const
{
    const double m = medianPass(passes_, first, last,
                                [](const ProbeTime &p) { return p.wall_s; });
    return m > 0.0 ? nominal_.wall_s / m : 1.0;
}

double
SpeedScale::cpuFactor(std::size_t first, std::size_t last) const
{
    const double m = medianPass(passes_, first, last,
                                [](const ProbeTime &p) { return p.cpu_s; });
    return m > 0.0 ? nominal_.cpu_s / m : 1.0;
}

double
SpeedScale::wallFactorAt(std::size_t before) const
{
    const std::size_t first = before >= kHalfWindow - 1
                                  ? before - (kHalfWindow - 1)
                                  : 0;
    return wallFactor(first, before + kHalfWindow);
}

double
SpeedScale::cpuFactorAt(std::size_t before) const
{
    const std::size_t first = before >= kHalfWindow - 1
                                  ? before - (kHalfWindow - 1)
                                  : 0;
    return cpuFactor(first, before + kHalfWindow);
}

double
SpeedScale::wallFactor() const
{
    return passes_.empty() ? 1.0 : wallFactor(0, passes_.size() - 1);
}

double
SpeedScale::cpuFactor() const
{
    return passes_.empty() ? 1.0 : cpuFactor(0, passes_.size() - 1);
}

} // namespace perfbench
