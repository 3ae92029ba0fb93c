/**
 * @file
 * Benchmark driver: runs one workload and prints its metrics, each
 * with unit and clock, then one JSON line with the verdict.
 *
 *   perfbench_driver --workload offline|serve|price --seed <n>
 *                    --seconds <s> --trace 0|1 [--trace-out <file>]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
 * replay, reports the per-layer metrics and, with --trace-out, writes
 * the spans as a Perfetto-loadable JSON file.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "workload.h"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    RunOptions run;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload offline|serve|price"
                 " --seed <n> --seconds <s> --trace 0|1"
                 " [--trace-out <file>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.run.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.run.seconds = std::stod(value);
            else if (flag == "--trace")
                args.run.trace = std::stoi(value) != 0;
            else if (flag == "--trace-out")
                args.trace_out = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.run.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

/** Writes the tracer's spans as Chrome trace-event JSON. */
void
writeTrace(const pimdl::obs::Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    out << tracer.toChromeJson();
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
printTable(const std::string &title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title.c_str());
    std::printf("  %-42s %16s  %-7s %s\n", "metric", "value", "unit",
                "clock");
    for (const Metric &m : metrics)
        std::printf("  %-42s %16.6g  %-7s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.clock.c_str());
}

/** The verdict line: the last line of standard output. */
void
printVerdict(RunResult &result)
{
    std::string metrics;
    for (const Metric &m : result.metrics) {
        double value = m.value;
        if (!std::isfinite(value)) {
            result.fail(m.name + " is not finite");
            value = 0.0;
        }
        metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\"") +
                   ": {\"value\": " + number(value) + ", \"unit\": \"" +
                   m.unit + "\"}";
    }
    for (const std::string &f : result.failures)
        std::printf("FAILED: %s\n", f.c_str());
    const double share =
        result.attempted > 0
            ? 100.0 * static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted)
            : 0.0;
    std::printf("operations: attempted %zu, failed %zu (%.3f%%)\n",
                result.attempted, result.failed, share);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                result.correct() ? "true" : "false", result.attempted,
                result.failed, metrics.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    RunResult (*run)(const RunOptions &) = nullptr;
    if (args.workload == "offline")
        run = runOffline;
    else if (args.workload == "serve")
        run = runServe;
    else if (args.workload == "price")
        run = runPrice;
    else
        usage("unknown workload " + args.workload);

    // The program's tracer records the benchmark's spans and the
    // program's own. It is off in timed runs; the traced run keeps it
    // on, except around the untraced operations it compares against.
    pimdl::obs::Tracer &tracer = pimdl::obs::Tracer::instance();
    tracer.setEnabled(args.run.trace);
    if (args.run.trace)
        tracer.setCapacity(1 << 17);

    RunResult result;
    try {
        result = run(args.run);
        tracer.setEnabled(false);
        if (args.run.trace && !args.trace_out.empty())
            writeTrace(tracer, args.trace_out);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << args.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    std::printf("workload %s, seed %llu, %.3g s measured, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.run.seed),
                args.run.seconds, args.run.trace ? 1 : 0);
    printTable(args.run.trace ? "per-layer metrics" : "end-to-end metrics",
               result.metrics);
    printTable("noise diagnostics", result.diagnostics);
    if (args.run.trace && !args.trace_out.empty())
        std::printf("trace written to %s (%zu spans, %llu dropped)\n",
                    args.trace_out.c_str(), tracer.events().size(),
                    static_cast<unsigned long long>(tracer.dropped()));
    printVerdict(result);
    return 0;
}
