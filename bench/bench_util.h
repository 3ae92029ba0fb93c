/**
 * @file
 * Shared helpers for the benchmark harnesses: geometric means, the
 * standard observability flags (--metrics-out / --trace-out / --smoke),
 * artifact emission so every bench binary leaves behind a
 * machine-readable metrics snapshot for CI and run-to-run comparison,
 * and the BERT-base serving block several benches replay.
 */

#ifndef PIMDL_BENCH_BENCH_UTIL_H
#define PIMDL_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "obs/snapshot.h"
#include "plan/schedule.h"
#include "runtime/serving_live.h"
#include "verify/verify.h"

namespace pimdl {
namespace bench {

/** Geometric mean of a list of positive ratios. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Command-line options shared by all bench binaries. */
struct BenchOptions
{
    /** Write pimdl::obs::snapshotJson() here after the run. */
    std::string metrics_out;
    /** Write the Chrome trace of the run here. */
    std::string trace_out;
    /** Reduced workload for CI smoke runs. */
    bool smoke = false;
    /** Run the plan verifier on every lowered plan (--verify-plans;
     * also enabled by the PIMDL_VERIFY_PLANS environment variable). */
    bool verify_plans = false;
    /** Timing backend (--backend; default: PIMDL_BACKEND env or
     * analytical, see defaultTimingBackendKind()). */
    TimingBackendKind backend = TimingBackendKind::Analytical;
};

/**
 * Parses a --backend value; exits with the valid spellings on anything
 * else so a typo fails loudly instead of silently running the default
 * backend.
 */
inline TimingBackendKind
parseBackendKind(const std::string &name)
{
    TimingBackendKind kind = TimingBackendKind::Analytical;
    if (!parseTimingBackendKind(name, &kind)) {
        std::cerr << "unknown --backend '" << name
                  << "' (valid: analytical, transaction)\n";
        std::exit(2);
    }
    return kind;
}

/**
 * Parses a --policy value; exits with the valid spellings on anything
 * else so a typo fails loudly instead of silently running the default
 * scheduler.
 */
inline SchedulePolicy
parseSchedulePolicy(const std::string &name)
{
    if (name == "sequential")
        return SchedulePolicy::Sequential;
    if (name == "pipelined")
        return SchedulePolicy::Pipelined;
    if (name == "overlap")
        return SchedulePolicy::Overlap;
    std::cerr << "unknown --policy '" << name
              << "' (valid: sequential, pipelined, overlap)\n";
    std::exit(2);
}

/** Parses @p value as a finite, strictly positive number or exits. */
inline double
parsePositiveDouble(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0) {
        std::cerr << flag << " expects a positive number, got '" << value
                  << "'\n";
        std::exit(2);
    }
    return v;
}

/** Parses @p value as a probability in [0, 1] or exits. */
inline double
parseUnitInterval(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
        v < 0.0 || v > 1.0) {
        std::cerr << flag << " expects a rate in [0, 1], got '" << value
                  << "'\n";
        std::exit(2);
    }
    return v;
}

/** Parses @p value as a strictly positive integer or exits. */
inline std::size_t
parsePositiveSize(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || v == 0) {
        std::cerr << flag << " expects a positive integer, got '" << value
                  << "'\n";
        std::exit(2);
    }
    return static_cast<std::size_t>(v);
}

/**
 * Hook for bench-specific flags layered over the shared ones. Called
 * with the current argument and the cursor; consume operands by
 * advancing @p i and return true, or return false to reject the flag.
 */
using ExtraArgHandler =
    std::function<bool(const std::string &arg, int argc, char **argv,
                       int &i)>;

/**
 * Parses the shared bench flags; exits with usage on unknown arguments
 * so CI catches typos instead of silently running the default config.
 * @p extra (optional) claims bench-specific flags first; @p extra_usage
 * is appended to the usage line.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv,
               const ExtraArgHandler &extra = nullptr,
               const std::string &extra_usage = "")
{
    BenchOptions opts;
    try {
        opts.backend = defaultTimingBackendKind();
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
    }
    const auto usage = [&](std::ostream &out) {
        out << "usage: " << argv[0]
            << " [--smoke] [--verify-plans] [--metrics-out <file>]"
               " [--trace-out <file>]"
               " [--backend analytical|transaction]"
            << extra_usage << "\n";
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (extra && extra(arg, argc, argv, i)) {
            continue;
        } else if (arg == "--backend" && i + 1 < argc) {
            opts.backend = parseBackendKind(argv[++i]);
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            opts.metrics_out = argv[++i];
        } else if (arg == "--trace-out" && i + 1 < argc) {
            opts.trace_out = argv[++i];
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--verify-plans") {
            opts.verify_plans = true;
            verify::setVerifyPlansEnabled(true);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage(std::cerr);
            std::exit(2);
        }
    }
    return opts;
}

/**
 * The benches' BERT-base serving block: Poisson arrivals (seed 1) at
 * 60% of @p engine's full-batch capacity over 20 s (@p smoke) or 60 s,
 * batched up to 32 requests with a 0.25 s max-wait, and replayed
 * through the live runtime in virtual time with every batch priced by
 * @p engine (V=4, CT=16, sequential schedule). @p deadline_s (0: none)
 * and @p faults set the requests' deadline and the batch fault profile.
 */
inline LiveReplay
replayBertBaseServing(const PimDlEngine &engine, bool smoke,
                      double deadline_s = 0.0,
                      const ServingFaultProfile &faults = {})
{
    ReplayClock clock;
    ModeledBatchExecutor executor(engine, bertBase(), LutNnParams{4, 16},
                                  SchedulePolicy::Sequential, clock);
    LiveServingConfig config;
    config.max_batch = 32;
    config.max_wait_s = 0.25;
    config.deadline_s = deadline_s;
    config.collect_outputs = false;
    config.faults = faults;
    const double capacity = static_cast<double>(config.max_batch) /
                            executor.batchLatency(config.max_batch);
    return LiveServingRuntime::replay(
        config, executor, clock,
        poissonArrivals(0.6 * capacity, smoke ? 20.0 : 60.0, /*seed=*/1));
}

/** Emits the requested metrics/trace artifacts at the end of a run. */
inline void
writeBenchArtifacts(const BenchOptions &opts)
{
    try {
        if (!opts.metrics_out.empty()) {
            pimdl::obs::writeSnapshotJson(opts.metrics_out);
            std::cerr << "[bench] metrics snapshot written to "
                      << opts.metrics_out << "\n";
        }
        if (!opts.trace_out.empty()) {
            pimdl::obs::writeChromeTrace(opts.trace_out);
            std::cerr << "[bench] chrome trace written to "
                      << opts.trace_out
                      << " (open at chrome://tracing)\n";
        }
    } catch (const std::exception &e) {
        // A failed artifact write must not look like a crashed bench.
        std::cerr << "[bench] error: " << e.what() << "\n";
        std::exit(1);
    }
}

} // namespace bench
} // namespace pimdl

#endif // PIMDL_BENCH_BENCH_UTIL_H
