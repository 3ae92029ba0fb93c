#include "simulator.h"

#include <array>
#include <cmath>

namespace pimdl {

namespace {

/**
 * Tasklet pipeline fill/drain per processed row: the DPU's 11-stage
 * pipeline only sustains 1 instr/cycle mid-row, so small nm tiles lose
 * a few cycles per row. The closed-form model ignores this, which is
 * the main source of its error against the simulator.
 */
constexpr double kPipelineFillRows = 0.4;

struct LoopDims
{
    std::size_t tn, tf, tc;
};

/** Maps a traversal order to per-level trip counts (outermost first). */
std::array<std::size_t, 3>
tripsFor(TraversalOrder order, const LoopDims &dims)
{
    auto pick = [&](char c) {
        switch (c) {
          case 'N':
            return dims.tn;
          case 'F':
            return dims.tf;
          default:
            return dims.tc;
        }
    };
    const char *name = traversalOrderName(order);
    return {pick(name[0]), pick(name[1]), pick(name[2])};
}

/** Indices of (n, f, c) inside the nest for an order. */
std::array<int, 3>
axisPositions(TraversalOrder order)
{
    const char *name = traversalOrderName(order);
    std::array<int, 3> pos{};
    for (int i = 0; i < 3; ++i) {
        switch (name[i]) {
          case 'N':
            pos[0] = i;
            break;
          case 'F':
            pos[1] = i;
            break;
          default:
            pos[2] = i;
            break;
        }
    }
    return pos;
}

} // namespace

SimulatedLutCost
simulateLutMapping(const PimPlatformConfig &platform,
                   const LutWorkloadShape &shape, const LutMapping &mapping,
                   const SimulatorOptions &options)
{
    SimulatedLutCost sim;
    if (!mappingIsLegal(platform, shape, mapping))
        return sim;
    sim.legal = true;

    const LoopDims dims{
        mapping.ns_tile / mapping.nm_tile,
        mapping.fs_tile / mapping.fm_tile,
        shape.cb / mapping.cbm_tile,
    };
    const auto trips = tripsFor(mapping.order, dims);
    const auto pos = axisPositions(mapping.order);

    const double lut_dtype = platform.lut_dtype_bytes;
    const double idx_mtile_bytes = static_cast<double>(mapping.nm_tile) *
                                   mapping.cbm_tile *
                                   shape.index_dtype_bytes;
    const double out_mtile_bytes =
        static_cast<double>(mapping.nm_tile) * mapping.fm_tile * 4.0;

    auto dma = [&](double bytes) {
        sim.micro_kernel_s += options.dma_setup_s +
                              bytes / platform.pe_stream.at(bytes);
        sim.pe_stream_bytes += bytes;
        sim.dma_count += 1;
    };

    double reduce_s = 0.0;

    // Static scheme: one bulk LUT fetch before the nest.
    if (mapping.scheme == LutLoadScheme::Static) {
        const double bytes = static_cast<double>(shape.cb) * shape.ct *
                             mapping.fs_tile * lut_dtype;
        // Bulk DMA streamed in 2 KiB chunks (UPMEM DMA max burst).
        const double chunk = 2048.0;
        const std::size_t chunks =
            static_cast<std::size_t>(std::ceil(bytes / chunk));
        for (std::size_t i = 0; i < chunks; ++i)
            dma(std::min(chunk, bytes - static_cast<double>(i) * chunk));
    }

    // Track previously-loaded tile coordinates for reuse decisions.
    long prev_n = -1, prev_f = -1, prev_c = -1;

    std::array<std::size_t, 3> it{};
    for (it[0] = 0; it[0] < trips[0]; ++it[0]) {
        for (it[1] = 0; it[1] < trips[1]; ++it[1]) {
            for (it[2] = 0; it[2] < trips[2]; ++it[2]) {
                const long n = static_cast<long>(it[pos[0]]);
                const long f = static_cast<long>(it[pos[1]]);
                const long c = static_cast<long>(it[pos[2]]);

                sim.micro_kernel_s += options.loop_overhead_s;

                // Index MTile load when its (n, c) region changes.
                if (n != prev_n || c != prev_c)
                    dma(idx_mtile_bytes);

                // Output MTile: store previous partials and load new ones
                // when the (n, f) region changes.
                if (n != prev_n || f != prev_f) {
                    if (prev_n >= 0)
                        dma(out_mtile_bytes); // store eviction
                    dma(out_mtile_bytes);     // load
                }

                // LUT traffic for this iteration.
                switch (mapping.scheme) {
                  case LutLoadScheme::Static:
                    break;
                  case LutLoadScheme::CoarseGrain: {
                    if (c != prev_c || f != prev_f) {
                        const std::size_t chunks =
                            (mapping.cbm_tile / mapping.cb_load_tile) *
                            (mapping.fm_tile / mapping.f_load_tile);
                        const double chunk_bytes =
                            static_cast<double>(mapping.cb_load_tile) *
                            shape.ct * mapping.f_load_tile * lut_dtype;
                        for (std::size_t k = 0; k < chunks; ++k)
                            dma(chunk_bytes);
                    }
                    break;
                  }
                  case LutLoadScheme::FineGrain: {
                    const double chunk_bytes =
                        static_cast<double>(mapping.f_load_tile) *
                        lut_dtype;
                    const std::size_t chunks =
                        mapping.nm_tile * mapping.cbm_tile *
                        (mapping.fm_tile / mapping.f_load_tile);
                    // Hardware threads overlap DMA setup; amortize the
                    // per-transfer cost across the parallel slots.
                    const double slots = static_cast<double>(
                        platform.pe_parallel_slots);
                    sim.micro_kernel_s +=
                        static_cast<double>(chunks) *
                        (options.dma_setup_s / slots +
                         chunk_bytes /
                             std::min(platform.pe_stream.peak,
                                      platform.pe_stream.at(chunk_bytes) *
                                          slots));
                    sim.pe_stream_bytes +=
                        static_cast<double>(chunks) * chunk_bytes;
                    sim.dma_count += chunks;
                    break;
                  }
                }

                // Reduce work of this iteration, derated by the per-row
                // pipeline fill the closed-form model abstracts away.
                const double fill_penalty =
                    1.0 + kPipelineFillRows /
                              static_cast<double>(mapping.nm_tile);
                const double adds = static_cast<double>(mapping.nm_tile) *
                                    mapping.fm_tile * mapping.cbm_tile;
                const double lookups =
                    static_cast<double>(mapping.nm_tile) *
                    mapping.cbm_tile;
                reduce_s += (adds / platform.pe_add_ops_per_s +
                             lookups / platform.pe_lookup_ops_per_s) *
                            fill_penalty;

                prev_n = n;
                prev_f = f;
                prev_c = c;
            }
        }
    }
    // Final output eviction.
    dma(out_mtile_bytes);

    sim.micro_kernel_s += reduce_s;

    // Sub-LUT stage: same host-side analytical transfers as the model.
    const LutCostBreakdown analytic =
        evaluateLutMapping(platform, shape, mapping);
    sim.total_s = analytic.subLutTotal() + analytic.kernel_launch +
                  sim.micro_kernel_s;
    return sim;
}

} // namespace pimdl
