/**
 * @file
 * Figure 11 reproduction:
 *  (a) inference latency breakdown of PIM-DL (V=4/CT=16) into the LUT
 *      operator (PIM), the CCS operator (host), and other operators
 *      (attention + elementwise on the host);
 *  (b) per-linear-layer speedup of LUT-NN inference over GEMM-based
 *      INT8 inference on the CPU server.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "plan/lowering.h"
#include "runtime/engine.h"
#include "transfer/transfer.h"

using namespace pimdl;
using namespace pimdl::bench;

int
main(int argc, char **argv)
{
    const pimdl::bench::BenchOptions opts =
        pimdl::bench::parseBenchArgs(argc, argv);
    PimDlEngine engine(upmemPlatform(), xeon4210Dual(), opts.backend);
    const HostModel cpu_int8(xeonGold5218Dual());
    const LutNnParams v4{4, 16};

    // Estimates go through the plan pipeline explicitly: lower once,
    // cost the nodes, hand the costed plan to a scheduler.
    const Scheduler &sched = schedulerFor(SchedulePolicy::Sequential);

    printBanner(std::cout,
                "Figure 11-(a): PIM-DL inference latency breakdown "
                "(V=4/CT=16)");
    TablePrinter breakdown({"Model", "LUT %", "CCS %", "Other %",
                            "LUT-NN (LUT+CCS) %"});
    for (const TransformerConfig &model :
         {bertBase(), bertLarge(), vitHuge()}) {
        const InferenceEstimate est =
            engine.estimate(model, v4, ExecutionMode::PimDl, sched);
        const double other = est.attention_s + est.other_s;
        breakdown.addRow({
            model.name,
            TablePrinter::fmt(100.0 * est.lut_s / est.total_s, 1),
            TablePrinter::fmt(100.0 * est.ccs_s / est.total_s, 1),
            TablePrinter::fmt(100.0 * other / est.total_s, 1),
            TablePrinter::fmt(
                100.0 * (est.lut_s + est.ccs_s) / est.total_s, 1),
        });
    }
    breakdown.print(std::cout);
    std::cout << "\nPaper reference: LUT-NN inference (LUT + CCS) takes "
                 "73.7-79.4% of total latency; the LUT operator alone "
                 "51.5-60.4%.\n";

    printBanner(std::cout,
                "Figure 11-(b): Layer-wise speedup vs CPU INT8 GEMM "
                "(V=4/CT=16)");
    TablePrinter layers({"Layer", "BERT-base", "BERT-large", "ViT-huge",
                         "Geomean"});
    std::vector<std::string> names{"QKV", "O", "FFN1", "FFN2"};
    std::vector<std::vector<double>> speedups(4);

    std::vector<TransformerConfig> models{bertBase(), bertLarge(),
                                          vitHuge()};
    std::vector<InferenceEstimate> estimates;
    estimates.reserve(models.size());
    for (const auto &model : models)
        estimates.push_back(
            engine.estimate(model, v4, ExecutionMode::PimDl, sched));

    for (std::size_t role = 0; role < 4; ++role) {
        std::vector<std::string> cells{names[role]};
        for (std::size_t m = 0; m < models.size(); ++m) {
            const LinearWorkload w = models[m].linearWorkloads()[role];
            const double cpu_s =
                cpu_int8.gemmSeconds(w.n, w.h, w.f, HostDtype::Int8) *
                static_cast<double>(models[m].layers);
            const double pim_s = estimates[m].per_linear[role].total();
            const double speedup = cpu_s / pim_s;
            speedups[role].push_back(speedup);
            cells.push_back(TablePrinter::fmtRatio(speedup));
        }
        cells.push_back(TablePrinter::fmtRatio(geomean(speedups[role])));
        layers.addRow(cells);
    }
    layers.print(std::cout);

    std::cout << "\nPaper reference geomeans: QKV 1.61x, O 0.99x, FFN1 "
                 "1.78x, FFN2 2.38x (1.81x overall); FFN2 gains most "
                 "because it has the largest inner dim, O least because "
                 "it is the smallest layer.\n";

    printBanner(std::cout,
                "Transfer-engine overlay: flat payloads vs coalesced "
                "bursts (link seconds)");
    const PimPlatformConfig upmem = upmemPlatform();
    TablePrinter bursts({"Model", "Payloads", "Bursts", "Merged",
                         "Flat link s", "Coalesced link s", "Speedup"});
    LoweringOptions lower_opts;
    lower_opts.platform = &upmem;
    for (const TransformerConfig &model : models) {
        Plan plan = lowerTransformer(model, v4, ExecutionMode::PimDl,
                                     lower_opts);
        const transfer::BurstPlan bp =
            transfer::planTransferBursts(plan);
        const double flat_s = bp.flatSeconds(upmem);
        const double coal_s = bp.burstSeconds(upmem);
        std::size_t pieces = 0;
        for (const transfer::TransferBurst &b : bp.bursts)
            pieces += b.pieces();
        bursts.addRow({model.name, std::to_string(pieces),
                       std::to_string(bp.bursts.size()),
                       std::to_string(bp.merged_pieces),
                       TablePrinter::fmt(flat_s, 4),
                       TablePrinter::fmt(coal_s, 4),
                       TablePrinter::fmtRatio(flat_s / coal_s)});
    }
    bursts.print(std::cout);
    std::cout << "\nStatic LUT re-staging payloads merge into scatter "
                 "bursts (fewer setups, higher curve point); see "
                 "bench_transfer for the end-to-end engine pricing with "
                 "residency and wave overlap.\n";
    pimdl::bench::writeBenchArtifacts(opts);
    return 0;
}
