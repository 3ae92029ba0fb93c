#include "cost_model.h"

#include <algorithm>
#include <array>

namespace pimdl {

namespace {

/** Loop dimensions of the micro-kernel nest. */
enum class LoopDim { N, F, C };

/** Returns the loop nest (outermost first) for a traversal order. */
std::array<LoopDim, 3>
loopNest(TraversalOrder order)
{
    switch (order) {
      case TraversalOrder::NFC:
        return {LoopDim::N, LoopDim::F, LoopDim::C};
      case TraversalOrder::NCF:
        return {LoopDim::N, LoopDim::C, LoopDim::F};
      case TraversalOrder::FNC:
        return {LoopDim::F, LoopDim::N, LoopDim::C};
      case TraversalOrder::FCN:
        return {LoopDim::F, LoopDim::C, LoopDim::N};
      case TraversalOrder::CNF:
        return {LoopDim::C, LoopDim::N, LoopDim::F};
      case TraversalOrder::CFN:
        return {LoopDim::C, LoopDim::F, LoopDim::N};
    }
    return {LoopDim::N, LoopDim::F, LoopDim::C};
}

double
tripCount(LoopDim dim, double tn, double tf, double tc)
{
    switch (dim) {
      case LoopDim::N:
        return tn;
      case LoopDim::F:
        return tf;
      case LoopDim::C:
        return tc;
    }
    return 1.0;
}

/**
 * Closed-form reload count of a tile that depends on the dims in
 * @p depends: total iterations divided by the trip counts of the maximal
 * innermost run of loops the tile does NOT depend on (those iterations
 * reuse the buffered tile).
 */
double
reloadCount(TraversalOrder order, bool depends_n, bool depends_f,
            bool depends_c, double tn, double tf, double tc)
{
    const auto nest = loopNest(order);
    double reuse = 1.0;
    for (int i = 2; i >= 0; --i) {
        const LoopDim dim = nest[i];
        const bool depends = (dim == LoopDim::N && depends_n) ||
                             (dim == LoopDim::F && depends_f) ||
                             (dim == LoopDim::C && depends_c);
        if (depends)
            break;
        reuse *= tripCount(dim, tn, tf, tc);
    }
    return (tn * tf * tc) / reuse;
}

bool
divides(std::size_t a, std::size_t b)
{
    return a != 0 && b % a == 0;
}

} // namespace

double
mappingBufferBytes(const PimPlatformConfig &platform,
                   const LutWorkloadShape &shape, const LutMapping &mapping)
{
    const double idx_bytes = static_cast<double>(mapping.nm_tile) *
                             mapping.cbm_tile * shape.index_dtype_bytes;
    // Output accumulates in 32-bit on the PE regardless of LUT dtype.
    const double out_bytes =
        static_cast<double>(mapping.nm_tile) * mapping.fm_tile * 4.0;

    double lut_bytes = 0.0;
    switch (mapping.scheme) {
      case LutLoadScheme::Static:
        lut_bytes = static_cast<double>(shape.cb) * shape.ct *
                    mapping.fs_tile * platform.lut_dtype_bytes;
        break;
      case LutLoadScheme::CoarseGrain:
        lut_bytes = static_cast<double>(mapping.cb_load_tile) * shape.ct *
                    mapping.f_load_tile * platform.lut_dtype_bytes;
        break;
      case LutLoadScheme::FineGrain:
        lut_bytes = static_cast<double>(platform.pe_parallel_slots) *
                    mapping.f_load_tile * platform.lut_dtype_bytes;
        break;
    }
    return idx_bytes + out_bytes + lut_bytes;
}

bool
mappingIsLegal(const PimPlatformConfig &platform,
               const LutWorkloadShape &shape, const LutMapping &mapping,
               std::string *reason)
{
    auto fail = [&](const char *why) {
        if (reason)
            *reason = why;
        return false;
    };

    if (!divides(mapping.ns_tile, shape.n))
        return fail("ns_tile must divide N");
    if (!divides(mapping.fs_tile, shape.f))
        return fail("fs_tile must divide F");
    if (mapping.totalPes(shape) > platform.num_pes)
        return fail("mapping needs more PEs than the platform has");
    if (!divides(mapping.nm_tile, mapping.ns_tile))
        return fail("nm_tile must divide ns_tile");
    if (!divides(mapping.fm_tile, mapping.fs_tile))
        return fail("fm_tile must divide fs_tile");
    if (!divides(mapping.cbm_tile, shape.cb))
        return fail("cbm_tile must divide CB");

    switch (mapping.scheme) {
      case LutLoadScheme::Static:
        break;
      case LutLoadScheme::CoarseGrain:
        if (!divides(mapping.cb_load_tile, mapping.cbm_tile))
            return fail("cb_load_tile must divide cbm_tile");
        if (!divides(mapping.f_load_tile, mapping.fm_tile))
            return fail("f_load_tile must divide fm_tile");
        break;
      case LutLoadScheme::FineGrain:
        if (!divides(mapping.f_load_tile, mapping.fm_tile))
            return fail("f_load_tile must divide fm_tile");
        break;
    }

    if (mappingBufferBytes(platform, shape, mapping) >
        static_cast<double>(platform.pe_buffer_bytes))
        return fail("tiles exceed the PE on-chip buffer");

    // Bank residency: the per-PE sub-LUT tile plus the index and
    // output slices it streams through must fit in the PE's local
    // memory (UPMEM MRAM / HBM-PIM and AiM bank region), regardless
    // of the on-chip load scheme. Binds on HBM-PIM, where fp16 LUT
    // entries make wide fs_tile slices outgrow the 16 MB bank.
    const double resident =
        static_cast<double>(shape.cb) * shape.ct * mapping.fs_tile *
            platform.lut_dtype_bytes +
        static_cast<double>(mapping.ns_tile) * shape.cb *
            shape.index_dtype_bytes +
        static_cast<double>(mapping.ns_tile) * mapping.fs_tile *
            shape.output_dtype_bytes;
    if (resident > static_cast<double>(platform.pe_local_mem_bytes))
        return fail("resident working set exceeds the PE local memory");
    return true;
}

LutCostBreakdown
evaluateLutMapping(const PimPlatformConfig &platform,
                   const LutWorkloadShape &shape, const LutMapping &mapping)
{
    LutCostBreakdown cost;
    std::string reason;
    if (!mappingIsLegal(platform, shape, mapping, &reason)) {
        cost.illegal_reason = reason;
        return cost;
    }
    cost.legal = true;

    const double num_pes = static_cast<double>(mapping.totalPes(shape));
    const double lut_dtype = platform.lut_dtype_bytes;

    // --- Step 1: sub-LUT partition (Eq. 3-4). -------------------------
    // Index tiles are broadcast to every PE of a group; LUT tiles are
    // broadcast to the matching PE of every group; outputs are gathered.
    const double index_tile_bytes = static_cast<double>(mapping.ns_tile) *
                                    shape.cb * shape.index_dtype_bytes;
    const double lut_tile_bytes = static_cast<double>(shape.cb) * shape.ct *
                                  mapping.fs_tile * lut_dtype;
    const double out_tile_bytes = static_cast<double>(mapping.ns_tile) *
                                  mapping.fs_tile * shape.output_dtype_bytes;

    // Index tiles: one payload shared by every lane of a group -> the
    // broadcast pattern. LUT tiles: a distinct payload per lane
    // (replicated across groups) -> the scatter pattern's bandwidth.
    cost.t_sub_index = index_tile_bytes * num_pes /
                       platform.host_broadcast.at(index_tile_bytes);
    // Platforms with bank-resident LUTs (HBM-PIM/AiM) only ship indices
    // and outputs per inference; UPMEM's offload flow re-stages LUT
    // tiles (Eq. 3).
    cost.t_sub_lut = platform.lut_resident
                         ? 0.0
                         : lut_tile_bytes * num_pes /
                               platform.host_scatter.at(lut_tile_bytes);
    cost.t_sub_output = out_tile_bytes * num_pes /
                        platform.host_gather.at(out_tile_bytes);

    // Unique payloads actually crossing the link (for energy): one index
    // matrix, one output matrix, plus the LUT when it is re-staged.
    cost.link_bytes = static_cast<double>(shape.n) * shape.cb *
                          shape.index_dtype_bytes +
                      static_cast<double>(shape.n) * shape.f *
                          shape.output_dtype_bytes;
    if (!platform.lut_resident) {
        cost.link_bytes += static_cast<double>(shape.cb) * shape.ct *
                           shape.f * lut_dtype;
    }

    // --- Step 2: micro-kernel (Eq. 6-10). -----------------------------
    const double tn = static_cast<double>(mapping.ns_tile) / mapping.nm_tile;
    const double tf = static_cast<double>(mapping.fs_tile) / mapping.fm_tile;
    const double tc = static_cast<double>(shape.cb) / mapping.cbm_tile;
    cost.iters = tn * tf * tc;

    // Index MTile: depends on (N, C).
    {
        const double mtile = static_cast<double>(mapping.nm_tile) *
                             mapping.cbm_tile * shape.index_dtype_bytes;
        cost.index_loads = reloadCount(mapping.order, true, false, true,
                                       tn, tf, tc);
        const double loads = cost.index_loads;
        cost.t_ld_index = loads * mtile / platform.pe_stream.at(mtile);
        cost.pe_stream_bytes += loads * mtile;
    }

    // Output MTile: depends on (N, F); every eviction stores partials.
    {
        const double mtile = static_cast<double>(mapping.nm_tile) *
                             mapping.fm_tile * 4.0;
        cost.output_loads = reloadCount(mapping.order, true, true, false,
                                        tn, tf, tc);
        const double loads = cost.output_loads;
        cost.t_ld_output = loads * mtile / platform.pe_stream.at(mtile);
        cost.t_st_output = loads * mtile / platform.pe_stream.at(mtile);
        cost.pe_stream_bytes += 2.0 * loads * mtile;
    }

    // LUT traffic per load scheme (Figure 9).
    switch (mapping.scheme) {
      case LutLoadScheme::Static: {
        // One bulk DMA of the whole per-PE LUT tile at kernel start.
        const double bytes = static_cast<double>(shape.cb) * shape.ct *
                             mapping.fs_tile * lut_dtype;
        // Streamed in buffer-sized chunks; effectively peak bandwidth.
        cost.t_ld_lut = bytes / platform.pe_stream.peak;
        cost.lut_chunks = 1.0;
        cost.pe_stream_bytes += bytes;
        break;
      }
      case LutLoadScheme::CoarseGrain: {
        // A (cb_load x CT x f_load) block is buffered until its codebooks
        // have been reduced; the buffered region depends on (C, F).
        const double region_loads = reloadCount(mapping.order, false, true,
                                                true, tn, tf, tc);
        const double chunks_per_region =
            (static_cast<double>(mapping.cbm_tile) / mapping.cb_load_tile) *
            (static_cast<double>(mapping.fm_tile) / mapping.f_load_tile);
        const double chunk_bytes = static_cast<double>(
                                       mapping.cb_load_tile) *
                                   shape.ct * mapping.f_load_tile *
                                   lut_dtype;
        cost.lut_chunks = region_loads * chunks_per_region;
        const double bytes = cost.lut_chunks * chunk_bytes;
        cost.t_ld_lut = bytes / platform.pe_stream.at(chunk_bytes);
        cost.pe_stream_bytes += bytes;
        break;
      }
      case LutLoadScheme::FineGrain: {
        // Per index processed, fetch the fm_tile span of the selected LUT
        // row in f_load_tile chunks; hardware threads overlap requests.
        const double chunk_bytes =
            static_cast<double>(mapping.f_load_tile) * lut_dtype;
        cost.lut_chunks =
            cost.iters * mapping.nm_tile * mapping.cbm_tile *
            (static_cast<double>(mapping.fm_tile) / mapping.f_load_tile);
        const double bytes = cost.lut_chunks * chunk_bytes;
        const double eff_bw =
            std::min(platform.pe_stream.peak,
                     platform.pe_stream.at(chunk_bytes) *
                         static_cast<double>(platform.pe_parallel_slots));
        cost.t_ld_lut = bytes / eff_bw;
        cost.pe_stream_bytes += bytes;
        break;
      }
    }

    // Reduce latency (Eq. 10): one accumulate per (row, codebook, f)
    // triple plus index decode/address generation per (row, codebook)
    // visit of each F tile.
    const double adds = static_cast<double>(mapping.ns_tile) *
                        mapping.fs_tile * shape.cb;
    const double lookups =
        static_cast<double>(mapping.ns_tile) * shape.cb * tf;
    cost.t_reduce = adds / platform.pe_add_ops_per_s +
                    lookups / platform.pe_lookup_ops_per_s;

    cost.kernel_launch = platform.kernel_launch_overhead_s;
    return cost;
}

} // namespace pimdl
