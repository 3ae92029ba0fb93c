/**
 * @file
 * Batched-serving what-if study: sweeps request arrival rates against a
 * PIM-DL deployment of a transformer on the UPMEM platform and reports
 * throughput, latency percentiles, batch sizes, rejections and
 * utilization — the cloud-serving scenario the paper motivates PIM-DL
 * with. Each point replays Poisson arrivals through the live serving
 * runtime in virtual time, every batch priced by the engine.
 *
 * Usage: serving_simulator [hidden] [layers] [seq] [metrics.json]
 *
 * When a fourth argument is given, the full observability snapshot of
 * the sweep (serving latency histograms, queue depths, tuner counters)
 * is written there as JSON.
 */

#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "obs/snapshot.h"
#include "runtime/serving_live.h"

using namespace pimdl;

int
main(int argc, char **argv)
{
    const std::size_t hidden =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 512;
    const std::size_t layers =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
    const std::size_t seq =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 128;

    const TransformerConfig model =
        customTransformer("served-model", hidden, layers, seq, 1);
    PimDlEngine engine(upmemPlatform(), xeon4210Dual());
    ReplayClock clock;
    ModeledBatchExecutor executor(engine, model, LutNnParams{4, 16},
                                  SchedulePolicy::Pipelined, clock);
    LiveServingConfig cfg;
    cfg.max_batch = 64;
    cfg.max_wait_s = 0.25;
    cfg.collect_outputs = false;

    std::cout << "Serving " << model.name << " (hidden " << hidden << ", "
              << layers << " layers, seq " << seq
              << ") on UPMEM PIM-DIMMs\n";
    std::cout << "policy: max batch 64, 250 ms batching deadline, "
                 "pow2 bucketing, queue bound "
              << cfg.queue_capacity << ", CCS/LUT pipelining on\n";

    printBanner(std::cout, "Load sweep (Poisson arrivals, 10 min span)");
    TablePrinter table({"Load (req/s)", "Throughput", "Mean batch",
                        "p50 (s)", "p95 (s)", "p99 (s)", "Rejected",
                        "Util"});
    for (double rate : {1.0, 5.0, 20.0, 80.0, 320.0}) {
        const LiveReplay run = LiveServingRuntime::replay(
            cfg, executor, clock,
            poissonArrivals(rate, 600.0, /*seed=*/1));
        table.addRow({
            TablePrinter::fmt(rate, 0),
            TablePrinter::fmt(run.throughputRps(), 1),
            TablePrinter::fmt(run.stats.mean_batch_size, 1),
            TablePrinter::fmt(run.stats.p50_latency_s, 2),
            TablePrinter::fmt(run.stats.p95_latency_s, 2),
            TablePrinter::fmt(run.stats.p99_latency_s, 2),
            std::to_string(run.stats.rejected),
            TablePrinter::fmt(run.utilization(), 2),
        });
    }
    table.print(std::cout);

    std::cout << "\nBatching amortizes PIM-DL's fixed costs only when "
                 "requests share a batch. A free worker takes every "
                 "queued request, up to 64, so batches grow with the "
                 "load until full batches saturate the PIM-DIMMs; past "
                 "that the queue fills and admission rejects.\n";

    if (argc > 4) {
        obs::writeSnapshotJson(argv[4]);
        std::cout << "\nmetrics snapshot written to " << argv[4] << "\n";
    }
    return 0;
}
