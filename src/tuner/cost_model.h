/**
 * @file
 * Analytical performance model of LUT-NN execution on DRAM-PIMs,
 * implementing the paper's Equations (3)-(10): sub-LUT partition cost
 * (host<->PIM transfers) plus micro-kernel cost (PE-local transfers and
 * reduce latency) under a given mapping.
 */

#ifndef PIMDL_TUNER_COST_MODEL_H
#define PIMDL_TUNER_COST_MODEL_H

#include <string>

#include "pim/platform.h"
#include "tuner/mapping.h"

namespace pimdl {

/** Full latency/traffic breakdown of one LUT operator execution. */
struct LutCostBreakdown
{
    bool legal = false;
    std::string illegal_reason;

    // Sub-LUT partition stage (Eq. 3-4), seconds.
    double t_sub_index = 0.0;
    double t_sub_lut = 0.0;
    double t_sub_output = 0.0;

    // Micro-kernel stage (Eq. 6-10), seconds (per PE; PEs run in
    // lock-step on identical tile shapes, so this is also wall time).
    double t_ld_index = 0.0;
    double t_ld_lut = 0.0;
    double t_ld_output = 0.0;
    double t_st_output = 0.0;
    double t_reduce = 0.0;

    double kernel_launch = 0.0;

    /**
     * Per-PE transfer/step counts behind the micro-kernel components:
     * index MTile loads, LUT chunk loads, output MTile loads (each also
     * stored back) and loop-nest iterations (reduce slices). The
     * transaction backend splits each component into this many
     * commands; the sub-LUT stage moves one payload per PE.
     */
    double index_loads = 0.0;
    double lut_chunks = 0.0;
    double output_loads = 0.0;
    double iters = 0.0;

    /**
     * Timing not captured by the closed-form components above. The
     * analytical model always leaves this zero; command-level timing
     * models (src/backend's TransactionBackend) park simulated effects
     * the equations do not express here — DRAM refresh stalls, host/PIM
     * arbitration windows, mode switches, per-command issue overhead —
     * so total() reports the simulated makespan either way.
     */
    double overhead_s = 0.0;

    /** Host<->PIM bytes actually moved (no broadcast duplicates). */
    double link_bytes = 0.0;
    /** Per-PE local-memory bytes streamed. */
    double pe_stream_bytes = 0.0;

    double subLutTotal() const
    {
        return t_sub_index + t_sub_lut + t_sub_output;
    }

    double microKernelTotal() const
    {
        return t_ld_index + t_ld_lut + t_ld_output + t_st_output + t_reduce;
    }

    double total() const
    {
        return subLutTotal() + microKernelTotal() + kernel_launch +
               overhead_s;
    }
};

/**
 * Timing-model hook for LUT-operator latency. The tuner's search loop
 * evaluates candidate mappings through this interface when one is
 * injected (AutoTuner::setTimingModel), which is how the pluggable
 * timing backends (src/backend) reach the tuner without creating a
 * tuner->backend dependency cycle: the interface lives here, the
 * implementations live above the tuner.
 */
class LutTimingModel
{
  public:
    virtual ~LutTimingModel() = default;

    /** Latency/traffic breakdown of one mapping of one workload. */
    virtual LutCostBreakdown lutCost(const LutWorkloadShape &shape,
                                     const LutMapping &mapping) const = 0;
};

/**
 * Evaluates the analytical model for @p mapping of @p shape on
 * @p platform. Returns an illegal breakdown (legal == false, with a
 * reason) when the mapping violates divisibility, PE-count, or buffer
 * constraints.
 */
LutCostBreakdown evaluateLutMapping(const PimPlatformConfig &platform,
                                    const LutWorkloadShape &shape,
                                    const LutMapping &mapping);

/**
 * Checks only the structural constraints of @p mapping (divisibility,
 * Eq. 5 PE count, buffer capacity); cheaper than a full evaluation.
 */
bool mappingIsLegal(const PimPlatformConfig &platform,
                    const LutWorkloadShape &shape, const LutMapping &mapping,
                    std::string *reason = nullptr);

/** On-chip buffer bytes the mapping requires on each PE. */
double mappingBufferBytes(const PimPlatformConfig &platform,
                          const LutWorkloadShape &shape,
                          const LutMapping &mapping);

} // namespace pimdl

#endif // PIMDL_TUNER_COST_MODEL_H
