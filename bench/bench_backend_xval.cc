/**
 * @file
 * Backend cross-validation driver: runs the same workloads through the
 * analytical timing backend and the transaction-level simulator and
 * reports per-phase relative errors (the model-vs-model twin of the
 * paper's 3.44% model-vs-hardware validation, Section 6.2).
 *
 * Sections:
 *   1. Per-phase error table: BERT-base (always; BERT-large and
 *      ViT-huge when not --smoke) end-to-end PIM-DL estimates under
 *      both backends, with CCS/LUT/attention/other/total relative
 *      errors. The mean error is CI-gated below the committed 10%
 *      bound, published as the backend.xval.bound gauge.
 *   2. Arbitration sweep: transaction-simulated BERT-base latency as
 *      co-located host DRAM traffic intensity rises; latency must be
 *      monotone non-decreasing in the intensity.
 *   3. Serving smoke under both backends (a virtual-time replay of the
 *      live runtime whose batches the backend prices; publishes the
 *      serving.live.* metrics).
 *
 * `--json <path>` additionally writes the error table in
 * pimdl.bench.backend.v1 JSON. Exits non-zero when the error bound or
 * the sweep monotonicity is violated.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/engine.h"

using namespace pimdl;
using namespace pimdl::bench;

namespace {

/** Committed analytical-vs-transaction error bound (CI-gated). */
constexpr double kErrorBound = 0.10;

/** Host-traffic intensities the arbitration sweep visits. */
constexpr double kSweepIntensities[] = {0.0, 0.2, 0.4, 0.6, 0.8};

/** Relative error |a - b| / a for a > 0 (0 when both phases vanish). */
double
relErr(double analytical, double transaction)
{
    if (analytical <= 0.0)
        return transaction > 0.0 ? 1.0 : 0.0;
    return std::abs(transaction - analytical) / analytical;
}

/** One model's cross-validation row. */
struct XvalEntry
{
    std::string model;
    double analytical_s = 0.0;
    double transaction_s = 0.0;
    double err_ccs = 0.0;
    double err_lut = 0.0;
    double err_attention = 0.0;
    double err_other = 0.0;
    double err_total = 0.0;

    double meanErr() const
    {
        return (err_ccs + err_lut + err_attention + err_other +
                err_total) /
               5.0;
    }
};

/** One arbitration-sweep point. */
struct SweepEntry
{
    double intensity = 0.0;
    double total_s = 0.0;
    double slowdown = 1.0;
};

void
writeBackendJson(const std::string &path,
                 const std::vector<XvalEntry> &entries,
                 const std::vector<SweepEntry> &sweep, double mean_err,
                 double max_err)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        std::exit(1);
    }
    out << "{\n  \"schema\": \"pimdl.bench.backend.v1\",\n"
        << "  \"bound\": " << obs::jsonNumber(kErrorBound) << ",\n"
        << "  \"mean_rel_err\": " << obs::jsonNumber(mean_err) << ",\n"
        << "  \"max_rel_err\": " << obs::jsonNumber(max_err) << ",\n"
        << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const XvalEntry &e = entries[i];
        out << "    {\"model\": " << obs::jsonString(e.model)
            << ", \"analytical_s\": " << obs::jsonNumber(e.analytical_s)
            << ", \"transaction_s\": " << obs::jsonNumber(e.transaction_s)
            << ", \"err_ccs\": " << obs::jsonNumber(e.err_ccs)
            << ", \"err_lut\": " << obs::jsonNumber(e.err_lut)
            << ", \"err_attention\": " << obs::jsonNumber(e.err_attention)
            << ", \"err_other\": " << obs::jsonNumber(e.err_other)
            << ", \"err_total\": " << obs::jsonNumber(e.err_total) << "}"
            << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"arbitration_sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        out << "    {\"host_traffic_intensity\": "
            << obs::jsonNumber(sweep[i].intensity)
            << ", \"total_s\": " << obs::jsonNumber(sweep[i].total_s)
            << ", \"slowdown\": " << obs::jsonNumber(sweep[i].slowdown)
            << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "[bench] backend xval results written to " << path
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out;
    double host_traffic = 0.0;
    const auto extra = [&](const std::string &arg, int argc_, char **argv_,
                           int &i) {
        if (arg == "--json" && i + 1 < argc_) {
            json_out = argv_[++i];
            return true;
        }
        if (arg == "--host-traffic" && i + 1 < argc_) {
            host_traffic =
                parseUnitInterval("--host-traffic", argv_[++i]);
            return true;
        }
        return false;
    };
    const BenchOptions opts = parseBenchArgs(
        argc, argv, extra,
        " [--json <file>] [--host-traffic <frac>]");

    const LutNnParams v4{4, 16};
    TransactionSimConfig txn;
    txn.host_traffic_intensity = host_traffic;
    const PimDlEngine analytical(upmemPlatform(), xeon4210Dual(),
                                 TimingBackendKind::Analytical);
    const PimDlEngine transaction(upmemPlatform(), xeon4210Dual(),
                                  TimingBackendKind::Transaction, txn);

    printBanner(std::cout,
                "Backend cross-validation: analytical vs transaction");
    if (host_traffic > 0.0)
        std::cout << "  (transaction tier with host traffic intensity "
                  << TablePrinter::fmt(host_traffic) << ")\n";

    std::vector<std::pair<std::string, TransformerConfig>> models = {
        {"BERT-base", bertBase()}};
    if (!opts.smoke) {
        models.emplace_back("BERT-large", bertLarge());
        models.emplace_back("ViT-huge", vitHuge());
    }

    std::vector<XvalEntry> entries;
    TablePrinter table({"Model", "Analytical (s)", "Transaction (s)",
                        "CCS err", "LUT err", "Attn err", "Other err",
                        "Total err"});
    double mean_err = 0.0;
    double max_err = 0.0;
    for (const auto &[name, model] : models) {
        const InferenceEstimate a = analytical.estimatePimDl(model, v4);
        const InferenceEstimate t = transaction.estimatePimDl(model, v4);
        XvalEntry e;
        e.model = name;
        e.analytical_s = a.total_s;
        e.transaction_s = t.total_s;
        e.err_ccs = relErr(a.ccs_s, t.ccs_s);
        e.err_lut = relErr(a.lut_s, t.lut_s);
        e.err_attention = relErr(a.attention_s, t.attention_s);
        e.err_other = relErr(a.other_s, t.other_s);
        e.err_total = relErr(a.total_s, t.total_s);
        mean_err += e.meanErr();
        max_err = std::max(
            {max_err, e.err_ccs, e.err_lut, e.err_attention, e.err_other,
             e.err_total});
        table.addRow({e.model, TablePrinter::fmt(e.analytical_s),
                      TablePrinter::fmt(e.transaction_s),
                      TablePrinter::fmt(e.err_ccs * 100.0, 2) + "%",
                      TablePrinter::fmt(e.err_lut * 100.0, 2) + "%",
                      TablePrinter::fmt(e.err_attention * 100.0, 2) + "%",
                      TablePrinter::fmt(e.err_other * 100.0, 2) + "%",
                      TablePrinter::fmt(e.err_total * 100.0, 2) + "%"});
        entries.push_back(e);
    }
    mean_err /= static_cast<double>(entries.size());
    table.print(std::cout);
    std::cout << "  mean rel err="
              << TablePrinter::fmt(mean_err * 100.0, 2) << "%  max="
              << TablePrinter::fmt(max_err * 100.0, 2) << "%  bound="
              << TablePrinter::fmt(kErrorBound * 100.0, 0) << "%\n";

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.gauge("backend.xval.mean_rel_err").set(mean_err);
    reg.gauge("backend.xval.max_rel_err").set(max_err);
    reg.gauge("backend.xval.bound").set(kErrorBound);

    // Section 2: co-located host traffic arbitration sweep (BERT-base).
    printBanner(std::cout,
                "Arbitration sweep: PIM latency vs host DRAM traffic");
    std::vector<SweepEntry> sweep;
    TablePrinter sweep_table(
        {"Host traffic", "Total (s)", "Slowdown vs idle"});
    bool monotone = true;
    for (double intensity : kSweepIntensities) {
        TransactionSimConfig cfg;
        cfg.host_traffic_intensity = intensity;
        const PimDlEngine eng(upmemPlatform(), xeon4210Dual(),
                              TimingBackendKind::Transaction, cfg);
        SweepEntry point;
        point.intensity = intensity;
        point.total_s = eng.estimatePimDl(bertBase(), v4).total_s;
        point.slowdown =
            sweep.empty() ? 1.0 : point.total_s / sweep.front().total_s;
        if (!sweep.empty() && point.total_s < sweep.back().total_s)
            monotone = false;
        sweep_table.addRow({TablePrinter::fmt(intensity, 1),
                            TablePrinter::fmt(point.total_s),
                            TablePrinter::fmtRatio(point.slowdown)});
        sweep.push_back(point);
    }
    sweep_table.print(std::cout);
    if (!monotone)
        std::cout << "  ERROR: latency not monotone in traffic "
                     "intensity\n";

    // Section 3: a short batched-serving replay under each backend
    // (the backend prices every batch) — also populates the
    // serving.live.* metrics of the snapshot.
    printBanner(std::cout, "Serving smoke under both backends");
    for (const PimDlEngine *eng : {&analytical, &transaction}) {
        const LiveReplay run = replayBertBaseServing(*eng, opts.smoke);
        std::cout << "  " << eng->backend().name() << ": throughput="
                  << TablePrinter::fmt(run.throughputRps(), 2)
                  << " rps p99="
                  << TablePrinter::fmt(run.stats.p99_latency_s, 3)
                  << "s util="
                  << TablePrinter::fmt(run.utilization() * 100.0, 1)
                  << "%\n";
    }

    if (!json_out.empty())
        writeBackendJson(json_out, entries, sweep, mean_err, max_err);
    writeBenchArtifacts(opts);

    if (mean_err >= kErrorBound) {
        std::cerr << "FAIL: mean relative error "
                  << TablePrinter::fmt(mean_err * 100.0, 2)
                  << "% >= bound "
                  << TablePrinter::fmt(kErrorBound * 100.0, 0) << "%\n";
        return 1;
    }
    if (!monotone) {
        std::cerr << "FAIL: transaction latency not monotone in host "
                     "traffic intensity\n";
        return 1;
    }
    return 0;
}
