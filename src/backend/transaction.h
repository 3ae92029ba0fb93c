/**
 * @file
 * TransactionBackend: a clocked, command-level DRAM-PIM simulator tier
 * behind the TimingBackend interface (ISA/command framing of PIMSIM-NN
 * and LP5X-PIM Sim, PAPERS.md).
 *
 * Per plan node the backend splits the analytical model's component
 * seconds into an explicit command stream: a LUT operator's Eq. 3-10
 * components come from evaluateLutMapping (cost_model.h) and become
 * host-link broadcast/scatter/gather commands per PE payload plus
 * per-bank micro-kernel commands (index/LUT/output tile loads, partial
 * stores, reduce slices) in representative bank FIFOs; a PIM GEMM's
 * come from analyticalPimGemmProfile. A ClockTick() event loop issues
 * one command per tick onto the earliest available resource, with
 * barrier phases (broadcast -> kernel -> gather) separated by
 * PIM-mode/memory-mode switches.
 *
 * On top of the first-order transfer/compute timing — which matches the
 * closed form by construction — the simulator models what no closed
 * form expresses: periodic DRAM refresh stalls (tREFI/tRFC), a
 * per-command issue overhead, and deterministic host-vs-PIM request
 * arbitration driven by a co-located host DRAM traffic knob (each
 * arbitration quantum grants the host a traffic-proportional window
 * plus two mode switches). Cross-validation against the analytical
 * tier is bounded and CI-gated (bench_backend_xval).
 */

#ifndef PIMDL_BACKEND_TRANSACTION_H
#define PIMDL_BACKEND_TRANSACTION_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "backend/backend.h"

namespace pimdl {

/** The transaction simulator's command set. */
enum class TxnCommandKind
{
    /** Host link: index tile replicated to every PE of a group. */
    Broadcast,
    /** Host link: distinct LUT tile per PE (UPMEM re-staging). */
    Scatter,
    /** Host link: per-PE output tile collection. */
    Gather,
    /** Host link: kernel-launch / GEMV command issue. */
    KernelLaunch,
    /** Bank: index micro-tile load into the PE buffer. */
    LdIndex,
    /** Bank: LUT chunk load (scheme-dependent granularity). */
    LdLut,
    /** Bank: output micro-tile (partials) load. */
    LdOutput,
    /** Bank: output micro-tile store. */
    StOutput,
    /** Bank: accumulate + index-decode slice (Eq. 10). */
    Reduce,
    /** Bank compute lane: MAC work of a GEMM/elementwise node. */
    Compute,
    /** Bank stream lane: weight/operand streaming. */
    Stream,
};

const char *txnCommandKindName(TxnCommandKind kind);

/** One executed command (kept when record_commands is set). */
struct TxnCommandTrace
{
    TxnCommandKind kind = TxnCommandKind::Broadcast;
    /** Queue the command ran on (0 = host link, then bank lanes). */
    std::size_t queue = 0;
    double start_s = 0.0;
    double end_s = 0.0;
};

/** Outcome of simulating one plan node. */
struct TxnNodeReport
{
    /** Simulated makespan, seconds. */
    double seconds = 0.0;
    std::size_t commands_generated = 0;
    std::size_t commands_issued = 0;
    std::size_t commands_completed = 0;
    /** ClockTick() invocations that issued a command. */
    std::size_t ticks = 0;
    /** Host-request windows that pre-empted a bank command. */
    std::size_t bank_conflicts = 0;
    /** PIM-mode <-> memory-mode transitions (phase + arbitration). */
    std::size_t mode_switches = 0;
    /** Refresh stalls (tRFC windows) absorbed by bank commands. */
    std::size_t refreshes = 0;
    /** Base busy seconds per command kind on the host link. */
    std::vector<double> link_kind_s;
    /** Base busy seconds per command kind on bank 0 (lock-step wall). */
    std::vector<double> bank_kind_s;
    /** Per-command execution log (empty unless record_commands). */
    std::vector<TxnCommandTrace> log;

    double linkKindSeconds(TxnCommandKind kind) const;
    double bankKindSeconds(TxnCommandKind kind) const;
};

/** The clocked command-level timing backend. */
class TransactionBackend final : public TimingBackend
{
  public:
    TransactionBackend(PimPlatformConfig platform,
                       HostProcessorConfig host,
                       TransactionSimConfig config = {});

    const char *name() const override { return "transaction"; }
    TimingBackendKind kind() const override
    {
        return TimingBackendKind::Transaction;
    }

    NodeCost costNode(const Plan &plan,
                      const PlanNode &node) const override;

    /**
     * Simulated breakdown of one LUT operator: closed-form component
     * fields are filled from the per-kind command sums and overhead_s
     * carries the refresh/arbitration/issue effects, so total() is the
     * simulated makespan.
     */
    LutCostBreakdown lutCost(const LutWorkloadShape &shape,
                             const LutMapping &mapping) const override;

    const TransactionSimConfig &config() const { return config_; }
    const PimPlatformConfig &platform() const { return platform_; }

    // Node-level simulations, exposed for the unit tests (command
    // conservation, per-bank FIFO order, arbitration invariants).
    /**
     * Command-level run of one LUT operator on @p num_pes PEs whose
     * Eq. 3-10 components are @p cost (an evaluateLutMapping result;
     * throws when it is illegal). Each component is split at its own
     * transfer/step count from @p cost.
     */
    TxnNodeReport simulateLut(const LutCostBreakdown &cost,
                              std::size_t num_pes) const;
    TxnNodeReport simulateGemm(std::size_t n, std::size_t h, std::size_t f,
                               HostDtype dtype, std::size_t batch) const;
    TxnNodeReport simulateElementwise(double ew_ops,
                                      double ew_bytes) const;
    /**
     * Command stream of one coalesced host<->PIM burst (the transfer
     * engine's unit of link work): one setup command
     * (link_setup_latency_s) followed by DMA chunks whose aggregate
     * busy time prices @p bytes at the whole-burst point of the
     * direction's bandwidth curve — which is the coalescing win the
     * engine claims, expressed in commands. Direction and
     * @p lut_staging select Broadcast (host->PIM activations), Scatter
     * (host->PIM LUT staging), or Gather (PIM->host outputs).
     */
    TxnNodeReport simulateTransferBurst(TransferDirection direction,
                                        bool lut_staging,
                                        double bytes) const;

  private:
    PimPlatformConfig platform_;
    HostModel host_;
    TransactionSimConfig config_;
    /** "backend.txn.tick" spans emitted so far (trace budget guard). */
    mutable std::atomic<std::uint64_t> spans_emitted_{0};

    void publishNodeMetrics(const char *node_kind,
                            const TxnNodeReport &report) const;
};

} // namespace pimdl

#endif // PIMDL_BACKEND_TRANSACTION_H
