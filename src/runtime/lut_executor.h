/**
 * @file
 * Functional distributed execution of a LUT operator across simulated
 * DRAM-PIM PEs under a sub-LUT partition (paper Figure 8-(a)), paired
 * with the analytical latency of the mapping.
 *
 * The PE computation is bit-faithful: each PE owns its (ns_tile x
 * fs_tile) output tile, receives the broadcast index tile of its group
 * and the LUT tile of its lane, and reduces locally — exactly the
 * dataflow the partition scheme prescribes (no inter-PE traffic, no
 * partial-sum merging on the host).
 *
 * Execution is optionally fault-aware (src/fault): a seed-driven
 * injector can kill PEs, crash kernel attempts, flip bits in resident
 * LUT tiles, and corrupt or stall host<->PIM transfers. The resilient
 * ladder — per-PE output-tile checksum verification, capped
 * exponential-backoff retries, degraded re-scheduling of tiles owned by
 * dead PEs onto survivors (plan/schedule.h), and finally a host
 * fallback — guarantees the assembled output stays bit-exact versus
 * fault-free execution while the stall/retry/remap cost lands in the
 * analytical timing as FaultReport::added_latency_s.
 */

#ifndef PIMDL_RUNTIME_LUT_EXECUTOR_H
#define PIMDL_RUNTIME_LUT_EXECUTOR_H

#include "fault/fault.h"
#include "lutnn/lut_layer.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"
#include "tuner/cost_model.h"

namespace pimdl {

/** Row waves a staged index broadcast is split into (capped at
 * ns_tile): each wave's fill overlaps the previous wave's PE compute. */
inline constexpr std::size_t kStageWaves = 4;

/**
 * Optional transfer-engine hookup for one distributed execution. When
 * present (and the platform is an offload model), the executor runs its
 * host->PIM movement through the real staging machinery instead of only
 * pricing it: fault-free index tiles are broadcast in kStageWaves
 * double-buffered row waves, and LUT re-staging consults the
 * resident-LUT manager first — a hit skips the scatter burst entirely.
 */
struct LutTransferContext
{
    /** Staging engine (required for the staged path). */
    transfer::TransferScheduler *scheduler = nullptr;
    /** Resident-LUT placement; nullptr = re-stage every launch. */
    transfer::ResidentLutManager *resident = nullptr;
    /** Caller-stable identity of this layer's LUT table. */
    std::uint64_t resident_key = 0;
};

/** Transfer-engine outcome of one distributed execution. */
struct TransferReport
{
    /** Staged bursts this execution issued (waves + LUT re-stages). */
    std::size_t bursts = 0;
    double staged_bytes = 0.0;
    /** Modeled link seconds of the staged transfers. */
    double transfer_model_s = 0.0;
    /** Modeled transfer seconds hidden behind PE compute by the
     * double-buffered waves. */
    double hidden_model_s = 0.0;
    /** Modeled LUT re-staging seconds skipped via residency hits. */
    double saved_stage_s = 0.0;
    std::size_t resident_hits = 0;
    std::size_t resident_misses = 0;
    /** Per-burst fault outcomes (streams 301+). */
    std::size_t stalls = 0;
    std::size_t corrupt_retries = 0;
    /** Modeled stall/re-stage seconds the burst faults added. */
    double burst_added_s = 0.0;

    /** Share of staged transfer time hidden behind compute, [0, 1]. */
    double
    overlapFrac() const
    {
        return transfer_model_s > 0.0 ? hidden_model_s / transfer_model_s
                                      : 0.0;
    }
};

/** Result of one distributed LUT execution. */
struct DistributedLutResult
{
    /** N x F output assembled from the per-PE tiles. */
    Tensor output;
    /** Analytical latency/traffic breakdown for the mapping. */
    LutCostBreakdown cost;
    /** PEs the partition occupied. */
    std::size_t pes_used = 0;
    /** Fault outcome of this execution (empty when fault-free). */
    FaultReport fault;
    /** Transfer-engine outcome (empty without a LutTransferContext). */
    TransferReport transfer;

    /** Modeled wall time including fault stall/retry/remap terms. */
    double
    modelSeconds() const
    {
        return cost.total() + fault.added_latency_s;
    }

    /**
     * Modeled wall time under the transfer engine: the analytical
     * baseline minus the staging seconds residency skipped and the
     * transfer seconds the wave overlap hid, plus per-burst fault
     * penalties. Collapses to modelSeconds() without a context.
     */
    double
    engineSeconds() const
    {
        return modelSeconds() + transfer.burst_added_s -
               transfer.saved_stage_s - transfer.hidden_model_s;
    }
};

/**
 * Runs @p layer's LUT operator for @p indices on the simulated platform
 * under @p mapping. When @p quantized is true the PEs reduce the INT8
 * LUT with INT32 accumulators (the UPMEM deployment mode).
 *
 * Every run takes one tile loop: per index wave, one parallel pass
 * over the (group, lane) tiles. Fault-free runs with a staging engine
 * read kStageWaves waves from staged buffers; every other run reads
 * one wave straight from @p indices.
 *
 * When @p faults is non-null, each tile runs the resilient attempt
 * loop under @p retry, dead PEs' tiles are remapped onto survivors, and
 * with no survivors every tile escalates to the host (host fallback);
 * with all rates zero and no forced kills the output (and the
 * analytical cost) is bit-identical to a fault-free run.
 *
 * When @p transfer_ctx is non-null, resident-LUT lookups (and, on a
 * miss, the LUT scatter burst) run through the transfer engine; a
 * faulted run gets residency only, its index broadcast is not staged.
 * The staged output is bit-identical to the unstaged one.
 *
 * Throws (via PIMDL_REQUIRE) if the mapping is illegal for the shape.
 */
DistributedLutResult runDistributedLut(
    const PimPlatformConfig &platform, const LutLayer &layer,
    const IndexMatrix &indices, const LutMapping &mapping, bool quantized,
    const FaultInjector *faults = nullptr, const RetryPolicy &retry = {},
    const LutTransferContext *transfer_ctx = nullptr);

/** Builds the tuner workload shape for a LUT layer and row count. */
LutWorkloadShape lutShapeFor(const LutLayer &layer, std::size_t rows);

} // namespace pimdl

#endif // PIMDL_RUNTIME_LUT_EXECUTOR_H
