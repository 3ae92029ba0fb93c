/**
 * @file
 * Fault-tolerance study: sweeps injected fault rates against the
 * resilient execution ladder (checksum detect -> retry -> degraded
 * remap -> host fallback) and against the live serving runtime's
 * availability/goodput accounting, replayed in virtual time.
 *
 * Section 1 exercises runDistributedLut under increasingly hostile
 * fault profiles and checks the assembled output stays bit-exact versus
 * the fault-free run — the paper's accuracy claims only survive
 * deployment if the runtime masks substrate faults without perturbing
 * results. Section 2 sweeps the per-batch fault rate of the serving
 * loop and reports availability, retry counts, failure counts, tail
 * latency, and goodput, which degrade monotonically because the fault
 * draws are coupled across rates.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "lutnn/converter.h"
#include "runtime/engine.h"
#include "runtime/lut_executor.h"
#include "runtime/serving_live.h"

using namespace pimdl;
using namespace pimdl::bench;

namespace {

LutLayer
makeLayer(std::size_t h, std::size_t f, std::size_t v, std::size_t ct,
          std::uint64_t seed)
{
    Rng rng(seed);
    Tensor w(h, f);
    w.fillGaussian(rng);
    Tensor calib(128, h);
    calib.fillGaussian(rng);
    std::vector<float> bias(f);
    for (std::size_t i = 0; i < f; ++i)
        bias[i] = 0.01f * static_cast<float>(i);
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    options.quantize_int8 = true;
    return convertLinearLayer(w, bias, calib, options);
}

LutMapping
mappingFor(std::size_t n, std::size_t f, std::size_t groups,
           std::size_t lanes, std::size_t ct)
{
    LutMapping m;
    m.ns_tile = n / groups;
    m.fs_tile = f / lanes;
    m.nm_tile = std::min<std::size_t>(m.ns_tile, 8);
    while (m.ns_tile % m.nm_tile != 0)
        --m.nm_tile;
    m.fm_tile = std::min<std::size_t>(m.fs_tile, 8);
    while (m.fs_tile % m.fm_tile != 0)
        --m.fm_tile;
    m.cbm_tile = ct;
    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 1;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    SchedulePolicy policy = SchedulePolicy::Sequential;
    double arrival_rate = 0.0; // 0 = derive from engine capacity
    double horizon_s = 0.0;    // 0 = smoke-dependent default
    std::size_t max_batch = 32;
    double deadline_s = 0.0; // 0 = auto from the batch service time
    double only_rate = -1.0; // <0 = sweep the built-in rate grid

    const auto extra = [&](const std::string &arg, int argc_, char **argv_,
                           int &i) {
        if (arg == "--policy" && i + 1 < argc_) {
            policy = parseSchedulePolicy(argv_[++i]);
            return true;
        }
        if (arg == "--arrival-rate" && i + 1 < argc_) {
            arrival_rate =
                parsePositiveDouble("--arrival-rate", argv_[++i]);
            return true;
        }
        if (arg == "--horizon" && i + 1 < argc_) {
            horizon_s = parsePositiveDouble("--horizon", argv_[++i]);
            return true;
        }
        if (arg == "--max-batch" && i + 1 < argc_) {
            max_batch = parsePositiveSize("--max-batch", argv_[++i]);
            return true;
        }
        if (arg == "--deadline" && i + 1 < argc_) {
            deadline_s = parsePositiveDouble("--deadline", argv_[++i]);
            return true;
        }
        if (arg == "--fault-rate" && i + 1 < argc_) {
            only_rate = parseUnitInterval("--fault-rate", argv_[++i]);
            return true;
        }
        return false;
    };
    const BenchOptions opts = parseBenchArgs(
        argc, argv, extra,
        " [--policy <name>] [--arrival-rate <rps>] [--horizon <s>]"
        " [--max-batch <n>] [--deadline <s>] [--fault-rate <r>]");

    // ---------------------------------------------------------------
    // Section 1: resilient distributed execution stays bit-exact.
    // ---------------------------------------------------------------
    printBanner(std::cout,
                "Fault ladder: bit-exactness of resilient execution");

    const std::size_t rows = 64, feat = 96;
    LutLayer layer = makeLayer(64, feat, 4, 16, 7001);
    Rng rng(7002);
    Tensor input(rows, 64);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);
    const std::size_t groups = 8, lanes = 12;
    const LutMapping mapping = mappingFor(rows, feat, groups, lanes, 16);

    const DistributedLutResult clean = runDistributedLut(
        upmemPlatform(), layer, idx, mapping, /*quantized=*/true);

    struct Scenario
    {
        const char *name;
        FaultConfig cfg;
        std::size_t kill_pes;
    };
    std::vector<Scenario> scenarios;
    {
        FaultConfig transient;
        transient.pe_transient_rate = 0.08;
        transient.transfer_stall_rate = 0.04;
        scenarios.push_back({"transient crashes + stalls", transient, 0});
        FaultConfig corrupt;
        corrupt.lut_bitflip_rate = 0.05;
        corrupt.transfer_corrupt_rate = 0.05;
        scenarios.push_back({"bit flips + transfer corruption", corrupt,
                             0});
        FaultConfig dead;
        dead.pe_hard_fail_rate = 0.10;
        scenarios.push_back({"10% PEs hard-failed (remap)", dead, 0});
        FaultConfig mixed;
        mixed.pe_transient_rate = 0.05;
        mixed.lut_bitflip_rate = 0.03;
        mixed.transfer_corrupt_rate = 0.03;
        mixed.transfer_stall_rate = 0.03;
        scenarios.push_back({"mixed profile + 3 killed PEs", mixed, 3});
        FaultConfig doomed;
        scenarios.push_back({"all PEs killed (host fallback)", doomed,
                             groups * lanes});
    }

    TablePrinter ladder({"Scenario", "Bit-exact", "Retries", "Remapped",
                         "Dead PEs", "Fallback", "Added (us)"});
    for (const Scenario &s : scenarios) {
        FaultInjector injector(s.cfg);
        for (std::size_t pe = 0; pe < s.kill_pes; ++pe)
            injector.forceFailPe(pe);
        const DistributedLutResult r =
            runDistributedLut(upmemPlatform(), layer, idx, mapping, true,
                              &injector);
        const float diff = maxAbsDiff(r.output, clean.output);
        ladder.addRow({
            s.name,
            diff == 0.0f ? "yes" : "NO",
            std::to_string(r.fault.retries),
            std::to_string(r.fault.tiles_remapped),
            std::to_string(r.fault.hard_failed_pes),
            r.fault.host_fallback ? "host" : "-",
            TablePrinter::fmt(r.fault.added_latency_s * 1e6, 1),
        });
        if (diff != 0.0f) {
            std::cerr << "ERROR: fault ladder perturbed the output "
                         "(max |diff| = "
                      << diff << ") in scenario '" << s.name << "'\n";
            return 1;
        }
    }
    ladder.print(std::cout);
    std::cout << "\nFault-free analytical latency: "
              << TablePrinter::fmt(clean.cost.total() * 1e6, 1)
              << " us/op; every scenario above reproduced it bit-exactly "
                 "while absorbing the injected faults.\n";

    // ---------------------------------------------------------------
    // Section 2: serving availability vs per-batch fault rate.
    // ---------------------------------------------------------------
    printBanner(std::cout,
                "Serving sweep: fault rate vs availability/goodput");

    PimDlEngine engine(upmemPlatform(), xeon4210Dual());
    ReplayClock clock;
    ModeledBatchExecutor executor(engine, bertBase(), LutNnParams{4, 16},
                                  policy, clock);

    LiveServingConfig serving;
    serving.max_batch = max_batch;
    serving.max_wait_s = 0.25;
    serving.collect_outputs = false;
    const double horizon =
        horizon_s > 0.0 ? horizon_s : (opts.smoke ? 20.0 : 60.0);
    const double base_latency = executor.batchLatency(serving.max_batch);
    const double rate_rps =
        arrival_rate > 0.0
            ? arrival_rate
            : 0.6 * static_cast<double>(serving.max_batch) / base_latency;
    const std::vector<double> arrivals =
        poissonArrivals(rate_rps, horizon, /*seed=*/1);
    // Batches bind late: a fault-free request waits out the batch in
    // flight (or max_wait at an idle worker) and then rides its own
    // batch, so max_wait + 2 full-batch latencies bound it while fewer
    // than max_batch requests queue ahead of it. The deadline adds half
    // a batch and one backoff to that for faults to eat into.
    serving.deadline_s =
        deadline_s > 0.0
            ? deadline_s
            : serving.max_wait_s +
                  base_latency *
                      (1.0 +
                       ModeledBatchExecutor::kDegradedServiceFactor) +
                  serving.faults.backoffFor(0);

    std::vector<double> rates{0.0, 0.02, 0.05, 0.10, 0.20, 0.40};
    if (opts.smoke)
        rates = {0.0, 0.05, 0.20};
    if (only_rate >= 0.0)
        rates = {only_rate};

    TablePrinter sweep({"Fault rate", "Avail", "Retries", "Degraded",
                        "Failed", "Timeout", "p99 (s)", "Goodput (rps)"});
    double prev_avail = 1.0 + 1e-9;
    bool monotone = true;
    bool fault_free_served = true;
    for (double rate : rates) {
        serving.faults.batch_fault_rate = rate;
        const LiveReplay run =
            LiveServingRuntime::replay(serving, executor, clock, arrivals);
        const LiveServingStats &stats = run.stats;
        sweep.addRow({
            TablePrinter::fmt(rate, 2),
            TablePrinter::fmt(stats.availability, 4),
            std::to_string(stats.batch_retries),
            std::to_string(stats.degraded_batches),
            std::to_string(stats.failed_batches),
            std::to_string(stats.timed_out),
            TablePrinter::fmt(stats.p99_latency_s, 3),
            TablePrinter::fmt(run.goodputRps(), 1),
        });
        if (stats.availability > prev_avail + 1e-12)
            monotone = false;
        if (rate == 0.0 && stats.availability < 1.0)
            fault_free_served = false;
        prev_avail = stats.availability;
    }
    sweep.print(std::cout);
    std::cout << "\nAvailability degrades "
              << (monotone ? "monotonically" : "NON-MONOTONICALLY")
              << " as the fault rate rises (coupled per-batch draws).\n";
    if (!fault_free_served)
        std::cerr << "ERROR: the fault-free row lost requests; the sweep "
                     "measures overload, not faults\n";

    writeBenchArtifacts(opts);
    return monotone && fault_free_served ? 0 : 1;
}
