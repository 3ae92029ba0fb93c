/**
 * @file
 * Figure 10 reproduction: end-to-end throughput (a) and energy
 * efficiency (b) of DDR4-PIM PIM-DL against the CPU server.
 *
 * Workloads: BERT-base / BERT-large (seq 512, batch 64) and ViT-huge
 * (seq padded to 264, batch 128). Configurations: CPU FP32, CPU INT8
 * (GGML-style kernels on dual Xeon Gold 5218), GEMM offload to the
 * UPMEM PIM ("PIM" latency line of the figure, per layer), and PIM-DL
 * with V=2/CT=16 and V=4/CT=16 (INT8 LUTs). All speedups/efficiencies
 * are normalized to CPU FP32 as in the paper.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "runtime/engine.h"

using namespace pimdl;
using namespace pimdl::bench;

int
main(int argc, char **argv)
{
    const pimdl::bench::BenchOptions opts =
        pimdl::bench::parseBenchArgs(argc, argv);
    printBanner(std::cout, "Figure 10-(a): End-to-end throughput");

    PimDlEngine engine(upmemPlatform(), xeon4210Dual(), opts.backend);
    const HostProcessorConfig cpu = xeonGold5218Dual();
    const LutNnParams v2{2, 16};
    const LutNnParams v4{4, 16};

    TablePrinter table({"Model", "Config", "Latency (s)",
                        "Latency/Layer (s)", "Speedup vs FP32"});
    std::vector<double> sp_v2_fp32, sp_v2_int8, sp_v4_fp32, sp_v4_int8;
    std::vector<double> sp_v2_pim, sp_v4_pim;
    std::vector<double> en_v2_fp32, en_v4_fp32, en_v2_int8, en_v4_int8;
    std::vector<double> en_v2_pim, en_v4_pim;

    struct Entry
    {
        const char *config;
        InferenceEstimate est;
    };

    std::vector<std::pair<TransformerConfig,
                          std::vector<Entry>>> all_results;

    // --smoke keeps CI fast: only the smallest paper workload.
    std::vector<TransformerConfig> models{bertBase()};
    if (!opts.smoke) {
        models.push_back(bertLarge());
        models.push_back(vitHuge());
    }

    for (const TransformerConfig &model : models) {
        const InferenceEstimate fp32 =
            estimateHostInference(cpu, model, HostDtype::Fp32);
        const InferenceEstimate int8 =
            estimateHostInference(cpu, model, HostDtype::Int8);
        // All PIM estimates route through the plan IR: lower the model
        // under a mode, cost the nodes, schedule sequentially.
        const Scheduler &sched =
            schedulerFor(SchedulePolicy::Sequential);
        const InferenceEstimate pim_gemm = engine.estimate(
            model, {}, ExecutionMode::PimGemm, sched, HostDtype::Int8);
        const InferenceEstimate pd_v2 =
            engine.estimate(model, v2, ExecutionMode::PimDl, sched);
        const InferenceEstimate pd_v4 =
            engine.estimate(model, v4, ExecutionMode::PimDl, sched);

        for (const Entry &e : std::vector<Entry>{
                 {"CPU FP32", fp32},
                 {"CPU INT8", int8},
                 {"PIM (GEMM offload)", pim_gemm},
                 {"PIM-DL V=2/CT=16", pd_v2},
                 {"PIM-DL V=4/CT=16", pd_v4}}) {
            table.addRow({
                model.name,
                e.config,
                TablePrinter::fmt(e.est.total_s, 2),
                TablePrinter::fmt(e.est.total_s /
                                      static_cast<double>(model.layers),
                                  2),
                TablePrinter::fmtRatio(fp32.total_s / e.est.total_s),
            });
        }

        sp_v2_fp32.push_back(fp32.total_s / pd_v2.total_s);
        sp_v2_int8.push_back(int8.total_s / pd_v2.total_s);
        sp_v4_fp32.push_back(fp32.total_s / pd_v4.total_s);
        sp_v4_int8.push_back(int8.total_s / pd_v4.total_s);
        sp_v2_pim.push_back(pim_gemm.total_s / pd_v2.total_s);
        sp_v4_pim.push_back(pim_gemm.total_s / pd_v4.total_s);

        en_v2_fp32.push_back(fp32.energy.total() / pd_v2.energy.total());
        en_v4_fp32.push_back(fp32.energy.total() / pd_v4.energy.total());
        en_v2_int8.push_back(int8.energy.total() / pd_v2.energy.total());
        en_v4_int8.push_back(int8.energy.total() / pd_v4.energy.total());
        en_v2_pim.push_back(pim_gemm.energy.total() /
                            pd_v2.energy.total());
        en_v4_pim.push_back(pim_gemm.energy.total() /
                            pd_v4.energy.total());

        all_results.emplace_back(
            model, std::vector<Entry>{{"CPU FP32", fp32},
                                      {"CPU INT8", int8},
                                      {"PIM (GEMM offload)", pim_gemm},
                                      {"PIM-DL V=2", pd_v2},
                                      {"PIM-DL V=4", pd_v4}});
    }
    table.print(std::cout);

    std::cout << "\nGeomean speedups:\n"
              << "  V=2 vs CPU FP32: "
              << TablePrinter::fmtRatio(geomean(sp_v2_fp32))
              << "  (paper 2.05x)\n"
              << "  V=2 vs CPU INT8: "
              << TablePrinter::fmtRatio(geomean(sp_v2_int8))
              << "  (paper 1.14x)\n"
              << "  V=4 vs CPU FP32: "
              << TablePrinter::fmtRatio(geomean(sp_v4_fp32))
              << "  (paper 3.07x)\n"
              << "  V=4 vs CPU INT8: "
              << TablePrinter::fmtRatio(geomean(sp_v4_int8))
              << "  (paper 1.71x)\n"
              << "  V=2 vs PIM-GEMM: "
              << TablePrinter::fmtRatio(geomean(sp_v2_pim))
              << "  (paper 12.61x)\n"
              << "  V=4 vs PIM-GEMM: "
              << TablePrinter::fmtRatio(geomean(sp_v4_pim))
              << "  (paper 18.91x)\n";

    printBanner(std::cout,
                "Figure 10-(b): Energy efficiency (normalized to CPU "
                "FP32)");
    TablePrinter energy({"Model", "Config", "Energy (J)",
                         "Efficiency vs FP32"});
    for (const auto &[model, entries] : all_results) {
        const double fp32_j = entries[0].est.energy.total();
        for (const auto &e : entries) {
            energy.addRow({
                model.name,
                e.config,
                TablePrinter::fmt(e.est.energy.total(), 0),
                TablePrinter::fmtRatio(fp32_j / e.est.energy.total()),
            });
        }
    }
    energy.print(std::cout);

    std::cout << "\nGeomean energy efficiency:\n"
              << "  V=2 vs CPU FP32: "
              << TablePrinter::fmtRatio(geomean(en_v2_fp32))
              << "  (paper 2.95x)\n"
              << "  V=2 vs CPU INT8: "
              << TablePrinter::fmtRatio(geomean(en_v2_int8))
              << "  (paper 1.65x)\n"
              << "  V=4 vs CPU FP32: "
              << TablePrinter::fmtRatio(geomean(en_v4_fp32))
              << "  (paper 4.42x)\n"
              << "  V=4 vs CPU INT8: "
              << TablePrinter::fmtRatio(geomean(en_v4_int8))
              << "  (paper 2.46x)\n"
              << "  V=2 vs PIM-GEMM: "
              << TablePrinter::fmtRatio(geomean(en_v2_pim))
              << "  (paper 11.16x)\n"
              << "  V=4 vs PIM-GEMM: "
              << TablePrinter::fmtRatio(geomean(en_v4_pim))
              << "  (paper 16.74x)\n";

    // End-to-end here also means serving: a virtual-time replay of
    // batched BERT-base serving through the live runtime populates the
    // serving.live.* latency/queue metrics of the --metrics-out
    // artifact.
    printBanner(std::cout, "Serving smoke (batched queue on BERT-base)");
    {
        const LiveReplay run = replayBertBaseServing(engine, opts.smoke);
        std::cout << "  requests=" << run.stats.submitted
                  << " batches=" << run.stats.batches << " p50="
                  << TablePrinter::fmt(run.stats.p50_latency_s, 3)
                  << "s p99="
                  << TablePrinter::fmt(run.stats.p99_latency_s, 3)
                  << "s util="
                  << TablePrinter::fmt(run.utilization() * 100.0, 1)
                  << "%\n";

        // Re-run the same workload with batch faults injected so the
        // artifact carries real retry and availability data (see
        // bench_fault_tolerance for the sweep). The deadline budgets
        // one retried re-execution on top of the fault-free tail
        // before a request counts as timed out.
        ServingFaultProfile faults;
        faults.batch_fault_rate = 0.2;
        const LiveReplay faulty = replayBertBaseServing(
            engine, opts.smoke, 2.5 * run.stats.p99_latency_s, faults);
        std::cout << "  with 20% batch faults: availability="
                  << TablePrinter::fmt(faulty.stats.availability, 4)
                  << " retries=" << faulty.stats.batch_retries
                  << " failed_batches=" << faulty.stats.failed_batches
                  << " goodput="
                  << TablePrinter::fmt(faulty.goodputRps(), 1)
                  << " rps\n";
    }

    pimdl::bench::writeBenchArtifacts(opts);
    return 0;
}
