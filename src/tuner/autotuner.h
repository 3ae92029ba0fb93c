/**
 * @file
 * The PIM-DL Auto-Tuner (paper Section 5.3, Algorithm 1): exhaustively
 * walks the legal sub-LUT tiling factors, searches each micro-kernel
 * mapping space (tiling factors x traversal order x load scheme), and
 * returns the minimum-latency mapping under the analytical cost model.
 */

#ifndef PIMDL_TUNER_AUTOTUNER_H
#define PIMDL_TUNER_AUTOTUNER_H

#include <vector>

#include "tuner/cost_model.h"

namespace pimdl {

/** Outcome of an auto-tuning run. */
struct AutoTuneResult
{
    bool found = false;
    LutMapping mapping;
    LutCostBreakdown cost;
    /** Number of candidate mappings evaluated. */
    std::size_t evaluated = 0;
};

/** Options bounding the tuner's search. */
struct AutoTuneOptions
{
    /** Require the mapping to occupy every platform PE (Eq. 5). */
    bool require_full_pe_use = false;
    /** Restrict the search to one load scheme (for ablations). */
    bool fix_scheme = false;
    LutLoadScheme scheme = LutLoadScheme::CoarseGrain;
};

/** Offline mapping search for LUT operators on a DRAM-PIM platform. */
class AutoTuner
{
  public:
    explicit AutoTuner(PimPlatformConfig platform,
                       AutoTuneOptions options = {});

    /** Algorithm 1: full search over P1-P4. */
    AutoTuneResult tune(const LutWorkloadShape &shape) const;

    /**
     * KernelSearch of Algorithm 1: best micro-kernel mapping for a fixed
     * sub-LUT tiling (ns_tile, fs_tile).
     */
    AutoTuneResult kernelSearch(const LutWorkloadShape &shape,
                                std::size_t ns_tile,
                                std::size_t fs_tile) const;

    /** Legal (ns_tile, fs_tile) pairs for the shape on this platform. */
    std::vector<std::pair<std::size_t, std::size_t>>
    legalSubLutTilings(const LutWorkloadShape &shape) const;

    const PimPlatformConfig &platform() const { return platform_; }

    /**
     * Injects a timing model for candidate evaluation; nullptr restores
     * the built-in analytical model (evaluateLutMapping), which is also
     * the default. The pointer is not owned and must outlive the tuner.
     * Command-level models cost orders of magnitude more per candidate
     * than the closed form, so engines keep the analytical model as the
     * search proxy and re-cost only the chosen mapping under the active
     * backend (DESIGN.md Section 12).
     */
    void setTimingModel(const LutTimingModel *timing) { timing_ = timing; }
    const LutTimingModel *timingModel() const { return timing_; }

  private:
    PimPlatformConfig platform_;
    AutoTuneOptions options_;
    const LutTimingModel *timing_ = nullptr;

    /** Candidate cost under the injected or built-in timing model. */
    LutCostBreakdown evaluateCandidate(const LutWorkloadShape &shape,
                                       const LutMapping &mapping) const;

    /** Complete (pow2-filtered) divisor list for sub-LUT factors. */
    std::vector<std::size_t> subLutCandidates(std::size_t total) const;

    /** Thinned candidate list for micro-kernel tile factors. */
    std::vector<std::size_t> tileCandidates(std::size_t total) const;
};

} // namespace pimdl

#endif // PIMDL_TUNER_AUTOTUNER_H
