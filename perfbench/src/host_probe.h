/**
 * @file
 * Host-clock probes: process CPU time, peak resident memory, and the
 * machine-noise readings (steal time, load average) printed beside
 * every run so an outlier can be explained.
 */

#ifndef PERFBENCH_HOST_PROBE_H
#define PERFBENCH_HOST_PROBE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Restricts the calling thread, and every thread it creates from now
 * on, to the virtual CPU it is running on. Returns that CPU, or -1
 * when the host does not allow it (the run then goes on unpinned).
 */
int pinToCurrentCpu();

/** Monotonic wall time, seconds. */
double wallSeconds();

/** CPU seconds consumed by every thread of this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** 1-minute load average, or -1 when /proc is unreadable. */
double loadAverage1m();

/** Aggregate CPU jiffies from /proc/stat. */
struct CpuJiffies
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    bool valid = false;
};

CpuJiffies readCpuJiffies();

/** Share of all CPU time between two readings that the hypervisor
 * stole, percent; -1 when either reading is invalid. */
double stealPercent(const CpuJiffies &before, const CpuJiffies &after);

/**
 * Wall and process-CPU stopwatch over one phase of a run, with the
 * steal reading taken over the same interval.
 */
class PhaseClock
{
  public:
    PhaseClock();

    double wallElapsed() const;
    double cpuElapsed() const;
    double stealPct() const;

    /** Process CPU over (wall x the program's parallelFor threads):
     * how busy the machine's share for this process was, percent. */
    double busyPct() const;

  private:
    double wall0_;
    double cpu0_;
    CpuJiffies jiffies0_;
};

/** Wall and process-CPU seconds of one pass of the speed probe. */
struct ProbeTime
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/**
 * How a probe pass spreads its work: @p serial chunks on the calling
 * thread, then @p parallel chunks on each of @p threads freshly
 * spawned threads. A workload's probe has the shape of its own work
 * (one thread, or a serial share followed by parallelFor-like fan-out),
 * so a host that runs fewer of its threads at once slows the probe as
 * much as the workload.
 */
struct ProbeShape
{
    std::size_t serial = 2;
    std::size_t threads = 0;
    std::size_t parallel = 0;
};

/**
 * A fixed piece of reference work, owned by the benchmark and not by
 * the program, that measures how fast the shared host runs right now.
 *
 * A chunk of work mixes random reads past the private caches,
 * vectorisable multiply-adds and branchy scalar code (probeWork in
 * host_probe.cc), because co-tenants slow each kind by a different
 * amount and each workload does some of each. On a shared machine the
 * host's speed drifts by 2x and more over minutes: steal, co-tenants
 * in the shared cache and memory bus, and spells in which the virtual
 * CPUs get less than a core each, so parallel work runs one thread at
 * a time. A workload runs a pass between its own operations and scales
 * its host times by the probe's nominal time over its measured time
 * (SpeedScale), so the reported host metrics follow the program, not
 * the co-tenants.
 */
class SpeedProbe
{
  public:
    SpeedProbe();

    /** Runs one pass of @p shape; returns its wall and process-CPU
     * seconds. */
    ProbeTime run(const ProbeShape &shape);

    /** What a pass of @p shape takes on a quiet 4-vCPU host. */
    static ProbeTime nominal(const ProbeShape &shape);

    /** Resident size of the table, MiB: part of the process's peak. */
    double tableMb() const;

  private:
    std::vector<float> table_;
};

/**
 * The probe passes of one run and the speed factors they give: nominal
 * probe time over measured probe time, so a factor below 1 means a slow
 * host, and a host time multiplied by it reads as at nominal speed.
 * Factors are medians over a window of passes, so one disturbed pass
 * moves them little.
 */
class SpeedScale
{
  public:
    SpeedScale(SpeedProbe &probe, ProbeShape shape)
        : probe_(probe), shape_(shape), nominal_(SpeedProbe::nominal(shape))
    {}

    /** Runs and records one pass. */
    ProbeTime sample();

    /** Records a pass measured elsewhere. */
    void record(ProbeTime pass) { passes_.push_back(pass); }

    std::size_t passes() const { return passes_.size(); }

    /** Factors from passes [first, last], clamped to those recorded;
     * 1 when there are none. */
    double wallFactor(std::size_t first, std::size_t last) const;
    double cpuFactor(std::size_t first, std::size_t last) const;

    /** Factors for an operation that ran between pass @p before and
     * the next: a window of kHalfWindow passes on either side. */
    double wallFactorAt(std::size_t before) const;
    double cpuFactorAt(std::size_t before) const;

    /** Factors from every pass recorded. */
    double wallFactor() const;
    double cpuFactor() const;

    /** Passes taken on either side of an operation. */
    static constexpr std::size_t kHalfWindow = 3;

  private:
    SpeedProbe &probe_;
    ProbeShape shape_;
    ProbeTime nominal_;
    std::vector<ProbeTime> passes_;
};

/** A probe shape for work on one thread. */
inline constexpr ProbeShape kSerialShape{2, 0, 0};

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_H
