/**
 * @file
 * Auto-tuner explorer: tunes an arbitrary LUT workload shape on a chosen
 * DRAM-PIM platform, prints the winning mapping with its full cost
 * breakdown, the best mapping per load scheme, and the transaction
 * backend's validation of the analytical estimate.
 *
 * Usage: autotune_explorer [upmem|hbm|aim] [N] [CB] [CT] [F]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "backend/transaction.h"
#include "common/table.h"
#include "tuner/autotuner.h"

using namespace pimdl;

int
main(int argc, char **argv)
{
    const std::string which = argc > 1 ? argv[1] : "upmem";
    LutWorkloadShape shape;
    shape.n = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 32768;
    shape.cb = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 192;
    shape.ct = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 16;
    shape.f = argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 2304;

    const PimPlatformConfig platform =
        which == "hbm" ? hbmPimPlatform()
                       : (which == "aim" ? aimPlatform() : upmemPlatform());
    shape.output_dtype_bytes = platform.lut_dtype_bytes;

    std::cout << "Tuning LUT workload (N=" << shape.n << ", CB="
              << shape.cb << ", CT=" << shape.ct << ", F=" << shape.f
              << ") on " << platform.name << "\n";

    AutoTuner tuner(platform);
    const AutoTuneResult best = tuner.tune(shape);
    if (!best.found) {
        std::cout << "no legal mapping found\n";
        return 1;
    }

    printBanner(std::cout, "Winning mapping");
    std::cout << best.mapping.describe() << "\n"
              << "PEs used: " << best.mapping.totalPes(shape) << " / "
              << platform.num_pes << ", candidates evaluated: "
              << best.evaluated << "\n\n";

    TablePrinter breakdown({"Component", "Seconds"});
    breakdown.addRow({"index send", TablePrinter::fmt(
                                        best.cost.t_sub_index, 6)});
    breakdown.addRow({"LUT send", TablePrinter::fmt(best.cost.t_sub_lut,
                                                    6)});
    breakdown.addRow({"output fetch", TablePrinter::fmt(
                                          best.cost.t_sub_output, 6)});
    breakdown.addRow({"index loads", TablePrinter::fmt(
                                         best.cost.t_ld_index, 6)});
    breakdown.addRow({"LUT loads", TablePrinter::fmt(best.cost.t_ld_lut,
                                                     6)});
    breakdown.addRow(
        {"output load/store", TablePrinter::fmt(best.cost.t_ld_output +
                                                    best.cost.t_st_output,
                                                6)});
    breakdown.addRow({"reduce", TablePrinter::fmt(best.cost.t_reduce, 6)});
    breakdown.addRow({"kernel launch", TablePrinter::fmt(
                                           best.cost.kernel_launch, 6)});
    breakdown.addRow({"TOTAL", TablePrinter::fmt(best.cost.total(), 6)});
    breakdown.print(std::cout);

    printBanner(std::cout, "Best mapping per LUT load scheme");
    TablePrinter schemes({"Scheme", "Latency (s)", "Mapping"});
    for (LutLoadScheme scheme :
         {LutLoadScheme::Static, LutLoadScheme::CoarseGrain,
          LutLoadScheme::FineGrain}) {
        AutoTuneOptions options;
        options.fix_scheme = true;
        options.scheme = scheme;
        AutoTuner fixed(platform, options);
        const AutoTuneResult r = fixed.tune(shape);
        schemes.addRow({lutLoadSchemeName(scheme),
                        r.found ? TablePrinter::fmt(r.cost.total(), 6)
                                : "illegal",
                        r.found ? r.mapping.describe() : "-"});
    }
    schemes.print(std::cout);

    printBanner(std::cout, "Transaction backend validation");
    // The paper's host pairings: Xeon with UPMEM, A2 GPU otherwise.
    const bool gpu_host = which == "hbm" || which == "aim";
    const TransactionBackend reference(
        platform, gpu_host ? a2Gpu() : xeon4210Dual());
    const LutCostBreakdown sim = reference.lutCost(shape, best.mapping);
    std::cout << "analytical " << TablePrinter::fmt(best.cost.total(), 6)
              << " s vs transaction " << TablePrinter::fmt(sim.total(), 6)
              << " s (" << TablePrinter::fmt(sim.overhead_s, 6)
              << " s simulated overhead, "
              << sim.pe_stream_bytes / 1024.0 << " KiB streamed per PE)\n";
    return 0;
}
