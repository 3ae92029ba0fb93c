#include "transaction.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "backend/analytical.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pimdl {

namespace {

constexpr std::size_t kNumCommandKinds = 11;

/** One PIM-mode <-> memory-mode switch, seconds. */
constexpr double kModeSwitchS = 0.5e-6;
/** Bank-unavailable window per refresh (tRFC), seconds. */
constexpr double kRefreshLatencyS = 350e-9;
/** Decode/issue overhead per bank command, seconds. */
constexpr double kCmdIssueOverheadS = 20e-9;
/** Refresh command period per bank (tREFI), seconds. */
constexpr double kRefreshIntervalS = 7.8e-6;
/** Host/PIM arbitration granting period, seconds. */
constexpr double kArbitrationQuantumS = 20e-6;
/**
 * Representative bank queues simulated per node. PEs run in lock-step
 * on identical tile shapes (cost_model.h), so a few representative
 * queues reproduce the full-module makespan.
 */
constexpr std::size_t kMaxSimBanks = 4;
/**
 * Commands one component (index loads, LUT chunks, ...) is split into
 * at most. Durations are conserved exactly; only event-loop
 * granularity changes.
 */
constexpr std::size_t kMaxCmdsPerComponent = 64;
/**
 * "backend.txn.tick" spans one backend instance emits: later node
 * simulations are only counted (backend.txn.trace_suppressed) so
 * plan-heavy sweeps cannot flood the bounded trace ring.
 */
constexpr std::uint64_t kTraceSpanBudget = 256;

std::size_t
kindIndex(TxnCommandKind kind)
{
    return static_cast<std::size_t>(kind);
}

/** One generated command awaiting issue. */
struct TxnCommand
{
    TxnCommandKind kind = TxnCommandKind::Broadcast;
    std::size_t phase = 0;
    /** Busy time at full bandwidth, before bank-level overheads. */
    double busy_s = 0.0;
};

/**
 * A FIFO command queue over one timing resource: the shared host link,
 * or one lane of one representative bank. Bank lanes additionally model
 * refresh stalls and host-traffic arbitration.
 */
struct TxnQueue
{
    bool is_bank = false;
    std::vector<TxnCommand> fifo;
    std::size_t head = 0;
    double free_at = 0.0;
    /** Accumulated busy time, for tREFI boundary counting. */
    double busy_accum = 0.0;
    /** Accumulated PIM-granted time, for arbitration windows. */
    double arb_accum = 0.0;
};

/**
 * Splits @p total_busy_s of work covering @p logical_chunks transfers
 * or op slices into at most kMaxCmdsPerComponent equal commands
 * (duration conserved).
 */
std::vector<double>
splitBusy(double total_busy_s, double logical_chunks)
{
    if (total_busy_s <= 0.0 || logical_chunks <= 0.0)
        return {};
    const double capped = std::min(
        logical_chunks, static_cast<double>(kMaxCmdsPerComponent));
    const std::size_t ncmd = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(capped)));
    return std::vector<double>(ncmd, total_busy_s /
                                         static_cast<double>(ncmd));
}

/** Bank queues simulated for a node spread over @p num_pes PEs. */
std::size_t
simBanks(std::size_t num_pes)
{
    return std::max<std::size_t>(1, std::min(kMaxSimBanks, num_pes));
}

/**
 * The clocked per-node simulation: phase barriers, one shared link
 * queue, representative bank-lane queues, and a ClockTick() issue loop.
 */
class TxnSim
{
  public:
    TxnSim(const TransactionSimConfig &config, std::size_t banks,
           std::size_t lanes_per_bank)
        : intensity_(config.host_traffic_intensity),
          lanes_per_bank_(lanes_per_bank)
    {
        queues_.resize(1 + banks * lanes_per_bank);
        for (std::size_t q = 1; q < queues_.size(); ++q)
            queues_[q].is_bank = true;
        report_.link_kind_s.assign(kNumCommandKinds, 0.0);
        report_.bank_kind_s.assign(kNumCommandKinds, 0.0);
    }

    std::size_t linkQueue() const { return 0; }
    std::size_t bankQueue(std::size_t bank, std::size_t lane) const
    {
        return 1 + bank * lanes_per_bank_ + lane;
    }
    std::size_t bankCount() const
    {
        return (queues_.size() - 1) / lanes_per_bank_;
    }

    void push(std::size_t queue, TxnCommandKind kind, std::size_t phase,
              double busy_s)
    {
        if (busy_s <= 0.0)
            return;
        queues_[queue].fifo.push_back({kind, phase, busy_s});
        ++report_.commands_generated;
        max_phase_ = std::max(max_phase_, phase);
    }

    void pushAll(std::size_t queue, TxnCommandKind kind, std::size_t phase,
                 const std::vector<double> &busy)
    {
        for (double b : busy)
            push(queue, kind, phase, b);
    }

    /** Marks the barrier into @p phase as a PIM/memory mode switch. */
    void switchBefore(std::size_t phase)
    {
        if (switch_phases_.size() <= phase)
            switch_phases_.resize(phase + 1, false);
        switch_phases_[phase] = true;
    }

    /** Mode switches appended after the last phase completes. */
    void setTrailingSwitches(std::size_t count)
    {
        trailing_switches_ = count;
    }

    TxnNodeReport run(bool record)
    {
        double clock = 0.0;
        for (std::size_t phase = 0; phase <= max_phase_; ++phase) {
            if (phase < switch_phases_.size() && switch_phases_[phase]) {
                clock += kModeSwitchS;
                ++report_.mode_switches;
            }
            double phase_end = clock;
            while (clockTick(phase, clock, record, &phase_end)) {
            }
            clock = phase_end;
        }
        clock += static_cast<double>(trailing_switches_) * kModeSwitchS;
        report_.mode_switches += trailing_switches_;
        report_.seconds = clock;
        return std::move(report_);
    }

  private:
    /**
     * Issues the eligible command with the earliest start time onto its
     * queue; returns false once no queue has a command in @p phase.
     */
    bool clockTick(std::size_t phase, double phase_start, bool record,
                   double *phase_end)
    {
        std::size_t best_queue = queues_.size();
        double best_start = 0.0;
        for (std::size_t q = 0; q < queues_.size(); ++q) {
            const TxnQueue &queue = queues_[q];
            if (queue.head >= queue.fifo.size())
                continue;
            if (queue.fifo[queue.head].phase != phase)
                continue;
            const double start = std::max(queue.free_at, phase_start);
            if (best_queue == queues_.size() || start < best_start) {
                best_queue = q;
                best_start = start;
            }
        }
        if (best_queue == queues_.size())
            return false;

        TxnQueue &queue = queues_[best_queue];
        const TxnCommand &cmd = queue.fifo[queue.head];
        ++queue.head;
        ++report_.commands_issued;
        ++report_.ticks;

        const double duration = queue.is_bank
                                    ? bankDuration(queue, cmd.busy_s)
                                    : cmd.busy_s;
        const double end = best_start + duration;
        queue.free_at = end;
        *phase_end = std::max(*phase_end, end);

        if (best_queue == linkQueue())
            report_.link_kind_s[kindIndex(cmd.kind)] += cmd.busy_s;
        else if (best_queue <= lanes_per_bank_) // lanes of bank 0
            report_.bank_kind_s[kindIndex(cmd.kind)] += cmd.busy_s;
        if (record)
            report_.log.push_back({cmd.kind, best_queue, best_start, end});
        ++report_.commands_completed;
        return true;
    }

    /**
     * Wall duration of @p busy_s of bank work: per-command issue
     * overhead, deterministic refresh stalls at every tREFI boundary of
     * accumulated busy time, and — when the host-traffic knob is on —
     * arbitration windows granting the host a traffic-proportional
     * share of each quantum plus two mode switches. The zero-intensity
     * path never touches the arbitration state, so a zero-traffic run
     * is bit-identical to one with arbitration absent.
     */
    double bankDuration(TxnQueue &queue, double busy_s)
    {
        double busy = busy_s + kCmdIssueOverheadS;

        const double before =
            std::floor(queue.busy_accum / kRefreshIntervalS);
        queue.busy_accum += busy;
        const auto refreshes = static_cast<std::size_t>(
            std::floor(queue.busy_accum / kRefreshIntervalS) - before);
        double duration =
            busy + static_cast<double>(refreshes) * kRefreshLatencyS;
        report_.refreshes += refreshes;

        if (intensity_ > 0.0) {
            const double pim_share =
                (1.0 - intensity_) * kArbitrationQuantumS;
            const double windows_before =
                std::floor(queue.arb_accum / pim_share);
            queue.arb_accum += duration;
            const auto windows = static_cast<std::size_t>(
                std::floor(queue.arb_accum / pim_share) - windows_before);
            if (windows > 0) {
                duration += static_cast<double>(windows) *
                            (intensity_ * kArbitrationQuantumS +
                             2.0 * kModeSwitchS);
                report_.bank_conflicts += windows;
                report_.mode_switches += 2 * windows;
            }
        }
        return duration;
    }

    double intensity_ = 0.0;
    std::size_t lanes_per_bank_ = 1;
    std::vector<TxnQueue> queues_;
    std::vector<bool> switch_phases_;
    std::size_t trailing_switches_ = 0;
    std::size_t max_phase_ = 0;
    TxnNodeReport report_;
};

/**
 * Interleaves per-component command lists round-robin into one bank
 * FIFO, approximating the loop nest's issue order (index load, LUT
 * chunk, output load/store, reduce slice, ...). Ordering only shapes
 * the FIFO; the serial per-bank sum is order-independent.
 */
void
pushInterleaved(TxnSim &sim, std::size_t queue, std::size_t phase,
                const std::vector<std::pair<TxnCommandKind,
                                            std::vector<double>>> &lists)
{
    std::vector<std::size_t> cursor(lists.size(), 0);
    bool any = true;
    while (any) {
        any = false;
        for (std::size_t c = 0; c < lists.size(); ++c) {
            if (cursor[c] >= lists[c].second.size())
                continue;
            sim.push(queue, lists[c].first, phase,
                     lists[c].second[cursor[c]]);
            ++cursor[c];
            any = true;
        }
    }
}

} // namespace

const char *
txnCommandKindName(TxnCommandKind kind)
{
    switch (kind) {
    case TxnCommandKind::Broadcast:
        return "broadcast";
    case TxnCommandKind::Scatter:
        return "scatter";
    case TxnCommandKind::Gather:
        return "gather";
    case TxnCommandKind::KernelLaunch:
        return "kernel_launch";
    case TxnCommandKind::LdIndex:
        return "ld_index";
    case TxnCommandKind::LdLut:
        return "ld_lut";
    case TxnCommandKind::LdOutput:
        return "ld_output";
    case TxnCommandKind::StOutput:
        return "st_output";
    case TxnCommandKind::Reduce:
        return "reduce";
    case TxnCommandKind::Compute:
        return "compute";
    case TxnCommandKind::Stream:
        return "stream";
    }
    return "?";
}

double
TxnNodeReport::linkKindSeconds(TxnCommandKind kind) const
{
    const std::size_t i = kindIndex(kind);
    return i < link_kind_s.size() ? link_kind_s[i] : 0.0;
}

double
TxnNodeReport::bankKindSeconds(TxnCommandKind kind) const
{
    const std::size_t i = kindIndex(kind);
    return i < bank_kind_s.size() ? bank_kind_s[i] : 0.0;
}

TransactionBackend::TransactionBackend(PimPlatformConfig platform,
                                       HostProcessorConfig host,
                                       TransactionSimConfig config)
    : platform_(std::move(platform)), host_(std::move(host)),
      config_(config)
{
    config_.validate();
}

TxnNodeReport
TransactionBackend::simulateLut(const LutCostBreakdown &cost,
                                std::size_t num_pes) const
{
    PIMDL_REQUIRE(cost.legal, "transaction sim of an illegal mapping: " +
                                  cost.illegal_reason);
    const double pes = static_cast<double>(num_pes);
    const std::size_t banks = simBanks(num_pes);

    TxnSim sim(config_, banks, 1);

    // Phase 0 (memory mode): sub-LUT partition transfers over the host
    // link (Eq. 3-4), one payload per PE, plus the kernel launch.
    sim.pushAll(sim.linkQueue(), TxnCommandKind::Broadcast, 0,
                splitBusy(cost.t_sub_index, pes));
    sim.pushAll(sim.linkQueue(), TxnCommandKind::Scatter, 0,
                splitBusy(cost.t_sub_lut, pes));
    sim.push(sim.linkQueue(), TxnCommandKind::KernelLaunch, 0,
             cost.kernel_launch);

    // Phase 1 (PIM mode): the micro-kernel loop nest on every bank, one
    // command per tile transfer or loop iteration of Eq. 6-10.
    const std::vector<std::pair<TxnCommandKind, std::vector<double>>>
        components = {
            {TxnCommandKind::LdIndex,
             splitBusy(cost.t_ld_index, cost.index_loads)},
            {TxnCommandKind::LdLut,
             splitBusy(cost.t_ld_lut, cost.lut_chunks)},
            {TxnCommandKind::LdOutput,
             splitBusy(cost.t_ld_output, cost.output_loads)},
            {TxnCommandKind::StOutput,
             splitBusy(cost.t_st_output, cost.output_loads)},
            {TxnCommandKind::Reduce, splitBusy(cost.t_reduce, cost.iters)},
        };
    for (std::size_t bank = 0; bank < banks; ++bank)
        pushInterleaved(sim, sim.bankQueue(bank, 0), 1, components);

    // Phase 2 (memory mode): output gather.
    sim.pushAll(sim.linkQueue(), TxnCommandKind::Gather, 2,
                splitBusy(cost.t_sub_output, pes));

    sim.switchBefore(1);
    sim.switchBefore(2);
    return sim.run(config_.record_commands);
}

TxnNodeReport
TransactionBackend::simulateGemm(std::size_t n, std::size_t h,
                                 std::size_t f, HostDtype dtype,
                                 std::size_t batch) const
{
    const PimGemmProfile profile =
        analyticalPimGemmProfile(platform_, n, h, f, dtype, batch);
    const std::size_t banks = simBanks(platform_.num_pes);

    // Two lanes per bank: the MAC pipeline and the weight-stream DMA
    // overlap (the closed form's max(compute, stream)).
    TxnSim sim(config_, banks, 2);
    sim.push(sim.linkQueue(), TxnCommandKind::Broadcast, 0,
             profile.transfer_in_s);
    sim.pushAll(sim.linkQueue(), TxnCommandKind::KernelLaunch, 0,
                splitBusy(profile.cmd_overhead_s, static_cast<double>(n)));
    for (std::size_t bank = 0; bank < banks; ++bank) {
        sim.pushAll(sim.bankQueue(bank, 0), TxnCommandKind::Compute, 1,
                    splitBusy(profile.compute_s, static_cast<double>(n)));
        sim.pushAll(sim.bankQueue(bank, 1), TxnCommandKind::Stream, 1,
                    splitBusy(profile.stream_s, static_cast<double>(n)));
    }
    sim.push(sim.linkQueue(), TxnCommandKind::Gather, 2,
             profile.transfer_out_s);
    sim.switchBefore(1);
    sim.switchBefore(2);
    return sim.run(config_.record_commands);
}

TxnNodeReport
TransactionBackend::simulateTransferBurst(TransferDirection direction,
                                          bool lut_staging,
                                          double bytes) const
{
    PIMDL_REQUIRE(bytes >= 0.0, "burst bytes must be non-negative");
    const BandwidthCurve &curve =
        direction == TransferDirection::PimToHost
            ? platform_.host_gather
            : (lut_staging ? platform_.host_scatter
                           : platform_.host_broadcast);
    const TxnCommandKind kind =
        direction == TransferDirection::PimToHost
            ? TxnCommandKind::Gather
            : (lut_staging ? TxnCommandKind::Scatter
                           : TxnCommandKind::Broadcast);

    // One link lane, no bank work: a pure memory-mode phase.
    TxnSim sim(config_, 1, 1);
    // Per-burst setup (descriptor build, rank barrier, DMA arm) —
    // charged once no matter how many payloads the burst coalesced.
    sim.push(sim.linkQueue(), TxnCommandKind::KernelLaunch, 0,
             platform_.link_setup_latency_s);
    if (bytes > 0.0) {
        // DMA chunks at descriptor granularity; the aggregate busy
        // time prices the whole burst at its size's curve point.
        const double chunk_bytes = 64.0 * 1024.0;
        const double chunks =
            std::max(1.0, std::ceil(bytes / chunk_bytes));
        sim.pushAll(sim.linkQueue(), kind, 0,
                    splitBusy(bytes / curve.at(bytes), chunks));
    }
    return sim.run(config_.record_commands);
}

TxnNodeReport
TransactionBackend::simulateElementwise(double ew_ops,
                                        double ew_bytes) const
{
    const std::size_t banks = simBanks(platform_.num_pes);
    TxnSim sim(config_, banks, 2);
    const auto slices = static_cast<double>(kMaxCmdsPerComponent);
    const double compute_s = ew_ops / platform_.totalAddThroughput();
    const double stream_s = ew_bytes / platform_.totalStreamBandwidth();
    for (std::size_t bank = 0; bank < banks; ++bank) {
        sim.pushAll(sim.bankQueue(bank, 0), TxnCommandKind::Compute, 0,
                    splitBusy(compute_s, slices));
        sim.pushAll(sim.bankQueue(bank, 1), TxnCommandKind::Stream, 0,
                    splitBusy(stream_s, slices));
    }
    sim.switchBefore(0);
    sim.setTrailingSwitches(1);
    return sim.run(config_.record_commands);
}

LutCostBreakdown
TransactionBackend::lutCost(const LutWorkloadShape &shape,
                            const LutMapping &mapping) const
{
    // One Eq. 3-10 evaluation supplies legality, traffic and the
    // components the simulation splits into commands; the timing
    // fields are then re-read from the per-kind command sums.
    LutCostBreakdown cost = evaluateLutMapping(platform_, shape, mapping);
    if (!cost.legal)
        return cost;

    const TxnNodeReport report =
        simulateLut(cost, mapping.totalPes(shape));
    cost.t_sub_index = report.linkKindSeconds(TxnCommandKind::Broadcast);
    cost.t_sub_lut = report.linkKindSeconds(TxnCommandKind::Scatter);
    cost.t_sub_output = report.linkKindSeconds(TxnCommandKind::Gather);
    cost.t_ld_index = report.bankKindSeconds(TxnCommandKind::LdIndex);
    cost.t_ld_lut = report.bankKindSeconds(TxnCommandKind::LdLut);
    cost.t_ld_output = report.bankKindSeconds(TxnCommandKind::LdOutput);
    cost.t_st_output = report.bankKindSeconds(TxnCommandKind::StOutput);
    cost.t_reduce = report.bankKindSeconds(TxnCommandKind::Reduce);
    // Park every simulated-only effect (refresh, arbitration, mode
    // switches, issue overhead, imperfect phase packing) in overhead_s
    // so total() reports the simulated makespan.
    cost.overhead_s = report.seconds - (cost.subLutTotal() +
                                        cost.microKernelTotal() +
                                        cost.kernel_launch);
    return cost;
}

void
TransactionBackend::publishNodeMetrics(const char *node_kind,
                                       const TxnNodeReport &report) const
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &issued =
        reg.counter("backend.txn.commands_issued");
    static obs::Counter &conflicts =
        reg.counter("backend.txn.bank_conflicts");
    static obs::Counter &switches =
        reg.counter("backend.txn.mode_switches");
    static obs::Counter &suppressed =
        reg.counter("backend.txn.trace_suppressed");
    issued.add(report.commands_issued);
    conflicts.add(report.bank_conflicts);
    switches.add(report.mode_switches);

    // Trace-span budget guard: plan-heavy sweeps simulate thousands of
    // nodes; only the first kTraceSpanBudget node simulations emit a
    // span so the bounded trace ring keeps its earlier content useful.
    if (spans_emitted_.fetch_add(1, std::memory_order_relaxed) <
        kTraceSpanBudget) {
        obs::TraceSpan span("backend.txn.tick");
        span.attr("node", node_kind);
        span.attr("ticks", static_cast<std::uint64_t>(report.ticks));
        span.attr("commands",
                  static_cast<std::uint64_t>(report.commands_issued));
        span.attr("bank_conflicts",
                  static_cast<std::uint64_t>(report.bank_conflicts));
        span.attr("seconds", report.seconds);
    } else {
        suppressed.add();
    }
}

NodeCost
TransactionBackend::costNode(const Plan &plan, const PlanNode &node) const
{
    NodeCost cost;
    switch (node.kind) {
    case PlanOpKind::LutOp: {
        PIMDL_REQUIRE(node.mapping_attached,
                      "LutOp node costed before a mapping was attached");
        const LutCostBreakdown lut =
            evaluateLutMapping(platform_, node.lut_shape, node.mapping);
        PIMDL_REQUIRE(lut.legal,
                      "mapping illegal for workload " +
                          std::string(linearRoleName(node.role)) + ": " +
                          lut.illegal_reason);
        const TxnNodeReport report =
            simulateLut(lut, node.mapping.totalPes(node.lut_shape));
        publishNodeMetrics("lut", report);
        cost.seconds = report.seconds;
        break;
    }
    case PlanOpKind::Gemm:
        if (node.device == PlanDevice::Pim) {
            const TxnNodeReport report = simulateGemm(
                node.n, node.h, node.f, node.dtype, plan.model.batch);
            publishNodeMetrics("gemm", report);
            cost.seconds =
                report.seconds + platform_.kernel_launch_overhead_s;
        } else {
            cost.seconds = analyticalHostNodeSeconds(host_, plan, node);
        }
        break;
    case PlanOpKind::Elementwise:
        if (node.device == PlanDevice::Pim) {
            const TxnNodeReport report =
                simulateElementwise(node.ew_ops, node.ew_bytes);
            publishNodeMetrics("elementwise", report);
            cost.seconds = report.seconds;
        } else {
            cost.seconds = analyticalHostNodeSeconds(host_, plan, node);
        }
        break;
    case PlanOpKind::HostPimTransfer:
        cost.link_bytes = node.transfer_bytes;
        break;
    case PlanOpKind::Ccs:
    case PlanOpKind::Attention:
        // Host-device nodes share the roofline model: the transaction
        // tier simulates the PIM module and its link, not the CPU/GPU.
        cost.seconds = analyticalHostNodeSeconds(host_, plan, node);
        break;
    }
    return cost;
}

} // namespace pimdl
