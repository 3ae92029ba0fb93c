/**
 * @file
 * Discrete tile-walking reference simulator for LUT micro-kernels.
 *
 * The analytical cost model (cost_model.h) uses closed-form reload
 * counts; this simulator walks the actual loop nest of one PE, charging
 * every DMA transfer individually (fixed setup cost + size-dependent
 * bandwidth, integer tile counts). It plays the role the real hardware
 * plays in the paper's Section 6.6 accuracy study: the auto-tuner's
 * estimates are validated against it (paper: avg 3.44% / max 13.73%
 * error; see bench_fig13_mapping_space).
 */

#ifndef PIMDL_TUNER_SIMULATOR_H
#define PIMDL_TUNER_SIMULATOR_H

#include "tuner/cost_model.h"

namespace pimdl {

/** Result of a discrete micro-kernel walk. */
struct SimulatedLutCost
{
    bool legal = false;
    /** Wall time of the whole operator (sub-LUT + micro-kernel). */
    double total_s = 0.0;
    /** Micro-kernel portion only. */
    double micro_kernel_s = 0.0;
    /** DMA transfers issued by one PE. */
    std::size_t dma_count = 0;
    /** Bytes streamed by one PE. */
    double pe_stream_bytes = 0.0;
};

/** Per-event costs the closed-form model abstracts away. */
struct SimulatorOptions
{
    /** Fixed setup latency per MRAM<->WRAM DMA transfer, seconds. */
    double dma_setup_s = 0.15e-6;
    /** Fixed cost of the tile-loop bookkeeping per iteration, seconds. */
    double loop_overhead_s = 0.02e-6;
};

/**
 * Walks one PE's micro-kernel loop nest under @p mapping and returns the
 * event-accurate latency. The sub-LUT stage reuses the analytical
 * transfer model (the host-side DMA engine is not tile-looped).
 */
SimulatedLutCost simulateLutMapping(const PimPlatformConfig &platform,
                                    const LutWorkloadShape &shape,
                                    const LutMapping &mapping,
                                    const SimulatorOptions &options = {});

} // namespace pimdl

#endif // PIMDL_TUNER_SIMULATOR_H
