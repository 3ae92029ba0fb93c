/**
 * @file
 * Chaos soak harness for the resilient serving control plane.
 *
 * Drives the live LiveServingRuntime (functional transformer executor,
 * PimLut primary path with HostLut fallback) through escalating levels
 * of deterministic control-plane chaos (fault/chaos.h): worker stalls,
 * primary-path exception storms, slow batches, and heartbeat losses.
 * The full resilience layer is on — watchdog supervision, circuit
 * breaker, poison bisection, and the AIMD in-flight limit, tuned by
 * the constants in runtime/resilience.h — and the harness asserts the
 * invariants that layer exists to uphold:
 *
 *   1. Conservation at every level: completed + timed_out + shed +
 *      failed == admitted. No admitted request may vanish.
 *   2. Goodput floor: the in-deadline completion fraction stays above
 *      zero at every level — primary-only exception storms always
 *      leave the HostLut fallback healthy, so the runtime must keep
 *      serving under maximum chaos instead of collapsing.
 *   3. Monotone degradation: goodput never *increases* materially as
 *      chaos escalates (coupled draws make each level's event set a
 *      superset of the previous level's).
 *   4. Monotone fault counts: the injector fires at least as many
 *      events at a higher rate (the coupled-draw contract).
 *
 * Any violation exits nonzero so CI catches a conservation hole (a
 * broken promise, a double resolution, a lost batch) as a hard
 * failure, not a statistic.
 *
 * `--json [path]` writes BENCH_chaos.json (schema pimdl.bench.chaos.v1).
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "fault/chaos.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/serving_live.h"

using namespace pimdl;
using namespace pimdl::bench;

namespace {

/** One chaos level's outcome, destined for BENCH_chaos.json. */
struct ChaosEntry
{
    std::size_t level = 0;
    /** Rate scale of this level in [0, 1] (0 = clean baseline). */
    double scale = 0.0;
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    std::size_t completed = 0;
    std::size_t timed_out = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    double goodput_frac = 0.0;
    std::size_t watchdog_hangs = 0;
    std::size_t bisections = 0;
    std::size_t poison_isolated = 0;
    std::size_t breaker_opens = 0;
    std::size_t chaos_stalls = 0;
    std::size_t chaos_exceptions = 0;
    std::size_t chaos_slow = 0;
    std::size_t chaos_heartbeat_losses = 0;
    bool conserved = false;
};

void
writeChaosJson(const std::string &path,
               const std::vector<ChaosEntry> &entries)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        std::exit(1);
    }
    out << "{\n  \"schema\": \"pimdl.bench.chaos.v1\",\n"
        << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const ChaosEntry &e = entries[i];
        out << "    {\"level\": " << e.level
            << ", \"scale\": " << obs::jsonNumber(e.scale)
            << ", \"submitted\": " << e.submitted
            << ", \"admitted\": " << e.admitted
            << ", \"completed\": " << e.completed
            << ", \"timed_out\": " << e.timed_out
            << ", \"shed\": " << e.shed << ", \"failed\": " << e.failed
            << ", \"goodput_frac\": " << obs::jsonNumber(e.goodput_frac)
            << ", \"watchdog_hangs\": " << e.watchdog_hangs
            << ", \"bisections\": " << e.bisections
            << ", \"poison_isolated\": " << e.poison_isolated
            << ", \"breaker_opens\": " << e.breaker_opens
            << ", \"chaos_stalls\": " << e.chaos_stalls
            << ", \"chaos_exceptions\": " << e.chaos_exceptions
            << ", \"chaos_slow\": " << e.chaos_slow
            << ", \"chaos_heartbeat_losses\": "
            << e.chaos_heartbeat_losses
            << ", \"conserved\": " << (e.conserved ? "true" : "false")
            << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "[bench] chaos results written to " << path << "\n";
}

/** Reads a process-global chaos counter (0 when never registered). */
std::size_t
chaosCount(const char *name)
{
    return static_cast<std::size_t>(
        obs::MetricsRegistry::instance().counter(name).value());
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t requests = 0; // 0 = smoke-dependent default
    std::size_t workers = 2;
    std::size_t max_batch = 4;
    std::size_t levels = 0; // 0 = smoke-dependent default
    double stall_rate = 0.08;
    double exception_rate = 0.35;
    double slow_rate = 0.15;
    double heartbeat_loss_rate = 0.08;
    bool emit_json = false;
    std::string json_path = "BENCH_chaos.json";

    const auto extra = [&](const std::string &arg, int argc_,
                           char **argv_, int &i) {
        if (arg == "--requests" && i + 1 < argc_) {
            requests = parsePositiveSize("--requests", argv_[++i]);
            return true;
        }
        if (arg == "--workers" && i + 1 < argc_) {
            workers = parsePositiveSize("--workers", argv_[++i]);
            return true;
        }
        if (arg == "--max-batch" && i + 1 < argc_) {
            max_batch = parsePositiveSize("--max-batch", argv_[++i]);
            return true;
        }
        if (arg == "--levels" && i + 1 < argc_) {
            levels = parsePositiveSize("--levels", argv_[++i]);
            return true;
        }
        if (arg == "--chaos-stall-rate" && i + 1 < argc_) {
            stall_rate =
                parseUnitInterval("--chaos-stall-rate", argv_[++i]);
            return true;
        }
        if (arg == "--chaos-exception-rate" && i + 1 < argc_) {
            exception_rate =
                parseUnitInterval("--chaos-exception-rate", argv_[++i]);
            return true;
        }
        if (arg == "--chaos-slow-rate" && i + 1 < argc_) {
            slow_rate =
                parseUnitInterval("--chaos-slow-rate", argv_[++i]);
            return true;
        }
        if (arg == "--chaos-heartbeat-loss-rate" && i + 1 < argc_) {
            heartbeat_loss_rate = parseUnitInterval(
                "--chaos-heartbeat-loss-rate", argv_[++i]);
            return true;
        }
        if (arg == "--json") {
            emit_json = true;
            if (i + 1 < argc_ && argv_[i + 1][0] != '-')
                json_path = argv_[++i];
            return true;
        }
        return false;
    };
    const BenchOptions opts = parseBenchArgs(
        argc, argv, extra,
        " [--requests <n>] [--workers <n>] [--max-batch <n>]"
        " [--levels <n>] [--chaos-stall-rate <r>]"
        " [--chaos-exception-rate <r>] [--chaos-slow-rate <r>]"
        " [--chaos-heartbeat-loss-rate <r>] [--json [path]]");

    if (requests == 0)
        requests = opts.smoke ? 64 : 256;
    if (levels == 0)
        levels = opts.smoke ? 3 : 5;

    // ---------------------------------------------------------------
    // Executable proxy model, PimLut primary -> HostLut fallback.
    // ---------------------------------------------------------------
    FunctionalTransformerConfig model_cfg;
    model_cfg.hidden = 32;
    model_cfg.ffn = 64;
    model_cfg.layers = 2;
    model_cfg.heads = 2;
    model_cfg.subvec_len = 4;
    model_cfg.centroids = 16;
    const std::size_t seq = 16;

    FunctionalTransformer model(model_cfg);
    {
        Rng rng(404);
        Tensor calibration(4 * seq, model_cfg.hidden);
        calibration.fillGaussian(rng);
        model.convertToLut(calibration, seq);
        // Tune PIM mappings so the primary path actually executes the
        // simulated-PE distribution (tuned once for the full batch
        // shape; the mapping is shape-stable across pow2 buckets).
        model.planPimExecution(upmemPlatform(), max_batch * seq);
    }
    FunctionalBatchExecutor executor(model, LinearBackendKind::PimLut);

    std::vector<Tensor> payloads;
    for (std::size_t i = 0; i < 8; ++i) {
        Rng rng(900 + i);
        Tensor t(seq, model_cfg.hidden);
        t.fillGaussian(rng);
        payloads.push_back(std::move(t));
    }

    // Resilience policy shared by every level. The chaos stall
    // duration (kChaosWorkerStallS) exceeds the watchdog's hang floor
    // (kMinHangTimeoutS), so injected stalls are seized and retried
    // instead of waited out.
    LiveServingConfig live_cfg;
    live_cfg.max_batch = max_batch;
    live_cfg.max_wait_s = 2e-3;
    live_cfg.queue_capacity = 512;
    live_cfg.workers = workers;
    live_cfg.collect_outputs = false;
    live_cfg.deadline_s = 0.5;
    live_cfg.faults.max_retries = 3;
    live_cfg.faults.backoff_base_s = 1e-4;
    live_cfg.faults.backoff_cap_s = 2e-3;
    live_cfg.resilience.watchdog = true;
    live_cfg.resilience.breaker = true;
    live_cfg.resilience.aimd = true;

    printBanner(std::cout, "Chaos escalation soak");
    TablePrinter table({"Level", "Scale", "Admitted", "Completed",
                        "TimedOut", "Shed", "Failed", "Goodput",
                        "Hangs", "BrkOpens", "Poison"});

    std::vector<ChaosEntry> entries;
    bool violated = false;
    double prev_goodput = 1.0;
    std::size_t prev_stalls = 0;
    std::size_t prev_exceptions = 0;

    for (std::size_t level = 0; level < levels; ++level) {
        const double scale =
            levels > 1 ? static_cast<double>(level) /
                             static_cast<double>(levels - 1)
                       : 1.0;
        ChaosConfig chaos_cfg;
        chaos_cfg.worker_stall_rate = scale * stall_rate;
        chaos_cfg.exception_rate = scale * exception_rate;
        chaos_cfg.slow_rate = scale * slow_rate;
        chaos_cfg.heartbeat_loss_rate = scale * heartbeat_loss_rate;
        const ChaosInjector chaos(chaos_cfg);

        // Chaos counters are process-global and cumulative: take the
        // per-level delta around the run.
        const std::size_t stalls0 = chaosCount("chaos.worker_stalls");
        const std::size_t excs0 = chaosCount("chaos.exceptions");
        const std::size_t slow0 = chaosCount("chaos.slow_batches");
        const std::size_t hb0 = chaosCount("chaos.heartbeat_losses");

        const std::size_t opens0 = [] {
            return static_cast<std::size_t>(
                obs::MetricsRegistry::instance()
                    .counter("serving.live.breaker.opens")
                    .value());
        }();

        LiveServingRuntime runtime(
            live_cfg, executor, nullptr,
            chaos_cfg.anyRateSet() ? &chaos : nullptr);
        std::vector<std::future<LiveRequestResult>> futures;
        futures.reserve(requests);
        for (std::size_t i = 0; i < requests; ++i) {
            auto f = runtime.submit(payloads[i % payloads.size()]);
            if (f.has_value())
                futures.push_back(std::move(*f));
        }
        for (auto &f : futures)
            (void)f.get();
        runtime.drain();
        const LiveServingStats s = runtime.stats();

        ChaosEntry e;
        e.level = level;
        e.scale = scale;
        e.submitted = s.submitted;
        e.admitted = s.submitted - s.rejected;
        e.completed = s.completed;
        e.timed_out = s.timed_out;
        e.shed = s.shed;
        e.failed = s.failed_requests;
        e.goodput_frac = s.availability;
        e.watchdog_hangs = s.watchdog_hangs;
        e.bisections = s.bisections;
        e.poison_isolated = s.poison_isolated;
        e.breaker_opens = s.breaker_opens - std::min(s.breaker_opens,
                                                     opens0);
        e.chaos_stalls = chaosCount("chaos.worker_stalls") - stalls0;
        e.chaos_exceptions = chaosCount("chaos.exceptions") - excs0;
        e.chaos_slow = chaosCount("chaos.slow_batches") - slow0;
        e.chaos_heartbeat_losses =
            chaosCount("chaos.heartbeat_losses") - hb0;

        // Invariant 1: conservation. Every admitted request resolved
        // to exactly one terminal outcome.
        e.conserved = e.completed + e.timed_out + e.shed + e.failed ==
                      e.admitted;
        if (!e.conserved) {
            std::cerr << "ERROR: conservation violated at level "
                      << level << ": completed=" << e.completed
                      << " + timed_out=" << e.timed_out
                      << " + shed=" << e.shed
                      << " + failed=" << e.failed
                      << " != admitted=" << e.admitted << "\n";
            violated = true;
        }

        // Invariant 2: the goodput floor. The HostLut fallback stays
        // healthy at every level, so the runtime must keep serving.
        if (e.admitted == 0 || e.goodput_frac <= 0.0) {
            std::cerr << "ERROR: goodput collapsed to zero at level "
                      << level << "\n";
            violated = true;
        }

        // Invariant 3: monotone degradation (with slack for thread
        // scheduling noise) — more chaos must not *improve* goodput
        // over the previous, gentler level.
        if (level > 0 && e.goodput_frac > prev_goodput + 0.15) {
            std::cerr << "ERROR: goodput rose from " << prev_goodput
                      << " to " << e.goodput_frac
                      << " under more chaos (level " << level << ")\n";
            violated = true;
        }
        prev_goodput = e.goodput_frac;

        // Invariant 4: coupled draws — raising the rates must not
        // *reduce* the fired event total. Retry/bisection dynamics
        // shift which (batch, attempt) keys get drawn between levels,
        // so allow headroom of half the previous total before calling
        // it a coupling violation.
        const std::size_t events = e.chaos_stalls + e.chaos_exceptions;
        const std::size_t prev_events = prev_stalls + prev_exceptions;
        if (level > 1 && events < prev_events / 2) {
            std::cerr << "ERROR: chaos event total fell from "
                      << prev_events << " to " << events
                      << " as rates rose (level " << level << ")\n";
            violated = true;
        }
        prev_stalls = e.chaos_stalls;
        prev_exceptions = e.chaos_exceptions;

        table.addRow({
            std::to_string(level),
            TablePrinter::fmt(scale, 2),
            std::to_string(e.admitted),
            std::to_string(e.completed),
            std::to_string(e.timed_out),
            std::to_string(e.shed),
            std::to_string(e.failed),
            TablePrinter::fmt(e.goodput_frac, 4),
            std::to_string(e.watchdog_hangs),
            std::to_string(e.breaker_opens),
            std::to_string(e.poison_isolated),
        });
        entries.push_back(e);
    }
    table.print(std::cout);

    if (emit_json)
        writeChaosJson(json_path, entries);
    writeBenchArtifacts(opts);

    if (violated) {
        std::cerr << "ERROR: chaos soak invariant violated (see "
                     "above)\n";
        return 1;
    }
    std::cout << "\nChaos soak passed: conservation held at every "
                 "level and goodput never collapsed ("
              << levels << " levels, " << requests
              << " requests each).\n";
    return 0;
}
