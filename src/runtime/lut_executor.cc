#include "lut_executor.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/schedule.h"
#include "transfer/layout.h"
#include "verify/verify.h"

namespace pimdl {

LutWorkloadShape
lutShapeFor(const LutLayer &layer, std::size_t rows)
{
    LutWorkloadShape shape;
    shape.n = rows;
    shape.cb = layer.shape().codebooks();
    shape.ct = layer.shape().centroids;
    shape.f = layer.shape().output_dim;
    return shape;
}

namespace {

/** Per-tile outcome of the fault-aware attempt loop (one writer each). */
struct TileOutcome
{
    std::uint32_t transient = 0;
    std::uint32_t bitflips = 0;
    std::uint32_t corruptions = 0;
    std::uint32_t stalls = 0;
    std::uint32_t retries = 0;
    /** Retries exhausted; the tile needs a clean host-side recompute. */
    bool escalated = false;
    /** Stall/backoff/re-execution seconds this tile accumulated. */
    double extra_s = 0.0;
};

/**
 * Output columns one fault-free kernel call covers: a block of
 * kLaneBlockCols / fs_tile adjacent lanes. A 6-column tile alone uses
 * 6 of every 8 SIMD lanes and one cache line per gathered LUT row; a
 * block amortizes the call, the index loads and the lines over about
 * three 32-column register blocks.
 */
constexpr std::size_t kLaneBlockCols = 96;

/** Flips one bit of one float in a tile buffer (simulated corruption). */
void
flipTileBit(float *data, std::size_t slot, unsigned bit)
{
    std::uint32_t word;
    std::memcpy(&word, data + slot, sizeof(word));
    word ^= 1u << (bit % 32u);
    std::memcpy(data + slot, &word, sizeof(word));
}

} // namespace

DistributedLutResult
runDistributedLut(const PimPlatformConfig &platform, const LutLayer &layer,
                  const IndexMatrix &indices, const LutMapping &mapping,
                  bool quantized, const FaultInjector *faults,
                  const RetryPolicy &retry,
                  const LutTransferContext *transfer_ctx)
{
    const LutWorkloadShape shape = lutShapeFor(layer, indices.rows);
    std::string reason;
    PIMDL_REQUIRE(mappingIsLegal(platform, shape, mapping, &reason),
                  "illegal mapping: " + reason);
    PIMDL_REQUIRE(!quantized || layer.hasQuantizedTables(),
                  "quantized run requires quantizeTables()");
    if (faults != nullptr)
        retry.validate();

    DistributedLutResult result;
    result.cost = evaluateLutMapping(platform, shape, mapping);
    result.pes_used = mapping.totalPes(shape);

    const std::size_t groups = mapping.groups(shape);
    const std::size_t lanes = mapping.pesPerGroup(shape);
    const std::size_t cb = shape.cb;

    // Flight-recorder span + registry counters for this execution. One
    // registry lookup per call (never per PE); PE-side increments go
    // through cached lock-free counters.
    obs::TraceSpan span("lut.runDistributedLut");
    span.attr("n", static_cast<std::uint64_t>(shape.n));
    span.attr("f", static_cast<std::uint64_t>(shape.f));
    span.attr("cb", static_cast<std::uint64_t>(cb));
    span.attr("pes", static_cast<std::uint64_t>(result.pes_used));
    span.attr("model_s", result.cost.total());

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &runs = reg.counter("lut.runs");
    static obs::Counter &pe_kernels = reg.counter("lut.pe_kernels");
    static obs::Counter &link_bytes = reg.counter("lut.link_bytes");
    static obs::Counter &stream_bytes = reg.counter("lut.pe_stream_bytes");
    static obs::Counter &cycles = reg.counter("lut.model_cycles");
    static obs::Histogram &model_latency =
        reg.histogram("lut.model_latency_s");

    runs.add();
    pe_kernels.add(groups * lanes);
    link_bytes.add(static_cast<std::uint64_t>(result.cost.link_bytes));
    stream_bytes.add(static_cast<std::uint64_t>(
        result.cost.pe_stream_bytes * static_cast<double>(result.pes_used)));
    // Modeled PE cycles: lock-step PEs each spend total() seconds at the
    // platform clock.
    cycles.add(static_cast<std::uint64_t>(result.cost.microKernelTotal() *
                                          platform.pe_freq_hz));
    model_latency.record(result.cost.total());

    result.output = Tensor(shape.n, shape.f);
    Tensor &out = result.output;
    const std::size_t tiles = groups * lanes;
    const std::size_t elem =
        quantized ? sizeof(std::int8_t) : sizeof(float);

    // The bit-faithful reduction of @p nrows index rows of one group
    // (row-major from idx0, stride indices.cols) against the LUT
    // columns of the nl adjacent lanes from l0, written row-major into
    // dst with the given stride: one row-block kernel call. Adjacent
    // lanes' columns are contiguous, and the kernel sums every column
    // on its own in ascending codebook order, so one call over a lane
    // block writes the same bits as one call per lane. The index base
    // is a parameter so the same call runs against the host tensor or
    // a wave's staged copy — identical u16 values either way. The
    // dispatched micro-kernels guarantee the operation order is
    // identical no matter which PE — or the host — executes the rows,
    // and no matter which ISA variant runs them, which is what keeps
    // staged, degraded-mode and fallback outputs bit-exact. Quantized
    // runs reduce INT8 entries into INT32 accumulators that the kernel
    // dequantizes on the way out.
    const kernels::KernelTable &kt = kernels::best();
    kernels::recordLutWork(shape.n, cb, shape.f, elem);
    const auto computeRows = [&](const std::uint16_t *idx0,
                                 std::size_t nrows, float *dst,
                                 std::size_t stride, std::size_t l0,
                                 std::size_t nl) {
        const std::size_t col0 = l0 * mapping.fs_tile;
        const std::size_t cols = nl * mapping.fs_tile;
        if (quantized) {
            kt.lut_accum_i8(idx0, indices.cols, nrows, cb, shape.ct,
                            layer.quantLutData(), shape.f, col0, cols,
                            layer.quantScale(), dst, stride);
        } else {
            kt.lut_accum_f32(idx0, indices.cols, nrows, cb, shape.ct,
                             layer.lutData(), shape.f, col0, cols, dst,
                             stride);
        }
    };

    // Folds one staged burst's pricing and fault outcome into the
    // transfer report, then frees its buffer.
    const auto finishBurst = [&](transfer::StagingChannel &chan,
                                 std::size_t ticket, std::size_t bytes,
                                 double model_s) {
        const transfer::StagedBurstReport br = chan.report(ticket);
        chan.release(ticket);
        ++result.transfer.bursts;
        result.transfer.staged_bytes += static_cast<double>(bytes);
        result.transfer.transfer_model_s += model_s;
        result.transfer.stalls += br.stalls;
        result.transfer.corrupt_retries += br.corrupt_retries;
        result.transfer.burst_added_s += br.added_seconds;
    };

    // ---- Transfer engine: resident-LUT placement -------------------
    // On offload-model platforms every launch re-stages the LUT unless
    // the placement manager says the table is already pinned in the
    // banks; a hit removes t_sub_lut from the engine's modeled time, a
    // miss pays one real scatter burst (packed in WRAM tile order).
    const bool engine_on =
        transfer_ctx != nullptr && transfer_ctx->scheduler != nullptr;
    if (transfer_ctx != nullptr && !platform.lut_resident) {
        const double lut_model_bytes = static_cast<double>(shape.cb) *
                                       static_cast<double>(shape.ct) *
                                       static_cast<double>(shape.f) *
                                       platform.lut_dtype_bytes;
        bool hit = false;
        if (transfer_ctx->resident != nullptr) {
            hit = transfer_ctx->resident->touch(
                transfer_ctx->resident_key, lut_model_bytes);
            if (hit) {
                ++result.transfer.resident_hits;
                result.transfer.saved_stage_s += result.cost.t_sub_lut;
            } else {
                ++result.transfer.resident_misses;
            }
        }
        if (!hit && engine_on) {
            // Scatter-stage the table: each lane's fs_tile columns
            // land contiguously, the layout its WRAM kernel consumes.
            const std::size_t lut_rows = shape.cb * shape.ct;
            const void *table =
                quantized ? static_cast<const void *>(layer.quantLutData())
                          : static_cast<const void *>(layer.lutData());
            auto lut_chan = transfer_ctx->scheduler->openChannel(
                "transfer.lut.tables");
            transfer::StageRequest req;
            req.bytes = lut_rows * shape.f * elem;
            req.modeled_seconds = result.cost.t_sub_lut;
            req.fill = [&, table, lut_rows](std::uint8_t *dst,
                                            std::size_t) {
                transfer::packColumnTiles(table, lut_rows, shape.f,
                                          mapping.fs_tile, elem, dst);
            };
            const std::size_t ticket = lut_chan->stage(std::move(req));
            lut_chan->wait(ticket);
            finishBurst(*lut_chan, ticket, lut_rows * shape.f * elem,
                        result.cost.t_sub_lut);
        }
    }

    // ---- Fault ladder, stage 1: dead PEs -----------------------------
    // Find the permanently dead PEs in this mapping's pool and, if any,
    // re-schedule their tiles onto the survivors (degraded mode). No
    // survivors at all => the engine abandons the PIM and the host
    // serves the operator: every tile is escalated.
    std::vector<TileOutcome> outcomes(faults != nullptr ? tiles : 0);
    DegradedLutRemap remap;
    bool host_fallback = false;
    std::uint64_t epoch = 0;
    if (faults != nullptr) {
        std::vector<bool> failed(tiles);
        for (std::size_t pe = 0; pe < tiles; ++pe) {
            failed[pe] = faults->peHardFailed(pe);
            result.fault.hard_failed_pes += failed[pe] ? 1 : 0;
        }
        if (result.fault.hard_failed_pes > 0) {
            reg.counter("fault.lut.dead_pes")
                .add(result.fault.hard_failed_pes);
            remap = planDegradedLutRemap(shape, mapping, failed);
            if (!remap.legal) {
                host_fallback = true;
            } else {
                result.fault.degraded_waves = remap.waves;
                if (verify::verifyPlansEnabled()) {
                    verify::requireClean(
                        verify::verifyDegradedRemap(shape, mapping, failed,
                                                    remap),
                        "degraded remap verification");
                }
            }
        }
        // One epoch per kernel launch: consecutive executions see fresh
        // (but still seed-deterministic) draws.
        if (!host_fallback)
            epoch = faults->nextEpoch();
    }
    // Modeled cost of re-running one PE kernel attempt.
    const double attempt_cost =
        result.cost.microKernelTotal() + result.cost.kernel_launch;

    // Runs one faulted (group, lane) tile over @p nrows index rows at
    // idx0 into its output rows from row0. Each attempt draws its stall
    // and crash, computes a scratch tile, stamps a checksum, and
    // delivers only if the host-side re-checksum matches. A tile that
    // exhausts its retries escalates: it is treated as running on a
    // just-failed PE, and the host recomputes it from its own LUT copy,
    // straight into the output.
    const auto runTile = [&](std::size_t tile, const std::uint16_t *idx0,
                             std::size_t row0, std::size_t nrows) {
        const std::size_t l = tile % lanes;
        float *dst = out.rowPtr((tile / lanes) * mapping.ns_tile + row0) +
                     l * mapping.fs_tile;
        // Physical executor of this logical tile (survivor under
        // degraded mode, the owning PE otherwise).
        const std::size_t pe = remap.legal ? remap.tile_owner[tile] : tile;
        TileOutcome &oc = outcomes[tile];
        const std::size_t tile_floats = nrows * mapping.fs_tile;
        const std::size_t tile_bytes = tile_floats * sizeof(float);
        std::vector<float> scratch(tile_floats);
        for (std::size_t attempt = 0;; ++attempt) {
            if (faults->transferStall(epoch, pe, attempt)) {
                ++oc.stalls;
                oc.extra_s += faults->config().stall_penalty_s;
            }

            bool delivered = false;
            if (faults->transientCrash(epoch, pe, attempt)) {
                ++oc.transient;
            } else {
                computeRows(idx0, nrows, scratch.data(), mapping.fs_tile,
                            l, 1);
                // The PE stamps a checksum on the tile it computed;
                // corruption strikes after that stamp (in the resident
                // LUT scrub window or on the wire), so the host-side
                // re-checksum exposes it.
                const std::uint64_t device_sum =
                    faultChecksum(scratch.data(), tile_bytes);
                const bool bitflip =
                    faults->lutBitFlip(epoch, pe, attempt);
                const bool corrupted =
                    bitflip || faults->transferCorrupt(epoch, pe, attempt);
                if (corrupted) {
                    flipTileBit(
                        scratch.data(),
                        faults->corruptionTarget(epoch, pe, attempt,
                                                 tile_floats),
                        static_cast<unsigned>(epoch + attempt +
                                              (bitflip ? 0 : 7)));
                }
                if (bitflip) {
                    ++oc.bitflips;
                    // Recovery re-stages the scrubbed LUT tile from the
                    // host copy: one more per-PE LUT load.
                    oc.extra_s += result.cost.t_ld_lut;
                } else if (corrupted) {
                    ++oc.corruptions;
                }
                const std::uint64_t host_sum =
                    faultChecksum(scratch.data(), tile_bytes);
                delivered = !corrupted && host_sum == device_sum;
            }

            if (delivered) {
                for (std::size_t r = 0; r < nrows; ++r)
                    std::memcpy(dst + r * out.cols(),
                                scratch.data() + r * mapping.fs_tile,
                                mapping.fs_tile * sizeof(float));
                return;
            }
            if (attempt == retry.max_retries) {
                oc.escalated = true;
                computeRows(idx0, nrows, dst, out.cols(), l, 1);
                return;
            }
            // Capped exponential backoff, then re-execute.
            ++oc.retries;
            oc.extra_s += retry.backoffFor(attempt) + attempt_cost;
        }
    };

    // Runs the (group, lane-block) item @p item: lanes_per_block
    // adjacent lanes of one group (fewer in a group's last block).
    // Fault-free — and under host fallback, where every tile escalates
    // up front — the block is one kernel call straight into the output.
    // Faulted, each of its tiles runs the attempt ladder on its own.
    const std::size_t lanes_per_block =
        std::max<std::size_t>(1, kLaneBlockCols / mapping.fs_tile);
    const std::size_t blocks_per_group =
        (lanes + lanes_per_block - 1) / lanes_per_block;
    const auto runBlock = [&](std::size_t item, const std::uint16_t *idx0,
                              std::size_t row0, std::size_t nrows) {
        const std::size_t g = item / blocks_per_group;
        const std::size_t l0 = (item % blocks_per_group) * lanes_per_block;
        const std::size_t nl = std::min(lanes_per_block, lanes - l0);
        if (faults == nullptr || host_fallback) {
            computeRows(idx0, nrows,
                        out.rowPtr(g * mapping.ns_tile + row0) +
                            l0 * mapping.fs_tile,
                        out.cols(), l0, nl);
            return;
        }
        for (std::size_t l = l0; l < l0 + nl; ++l)
            runTile(g * lanes + l, idx0, row0, nrows);
    };

    // ---- The tile loop -----------------------------------------------
    // One parallelFor over the (group, lane-block) items per index wave.
    // Fault-free runs with a staging engine split the index broadcast
    // into double-buffered row waves: wave w+1's staged fill runs on
    // the transfer thread while the lock-step PEs reduce wave w, so all
    // but the first wave's transfer hides behind compute (up to the
    // shorter of the two per-wave times — the classic double-buffer
    // bound). Every other run is one wave read straight from the host
    // tensor: with row0 = 0 and nrows = ns_tile, packWaveRows' group-
    // major layout is exactly the host index layout.
    const bool staged = engine_on && faults == nullptr;
    const std::size_t waves =
        staged ? std::min(kStageWaves, mapping.ns_tile) : 1;
    const std::size_t rpw = (mapping.ns_tile + waves - 1) / waves;
    const double ns_total = static_cast<double>(mapping.ns_tile);

    std::unique_ptr<transfer::StagingChannel> chan;
    if (staged)
        chan =
            transfer_ctx->scheduler->openChannel("transfer.lut.indices");
    const auto stageWave = [&](std::size_t w) {
        const std::size_t row0 = w * rpw;
        const std::size_t nrows = std::min(rpw, mapping.ns_tile - row0);
        transfer::StageRequest req;
        req.bytes = groups * nrows * indices.cols * sizeof(std::uint16_t);
        req.modeled_seconds = result.cost.t_sub_index *
                              static_cast<double>(nrows) / ns_total;
        req.fill = [&, row0, nrows](std::uint8_t *dst, std::size_t) {
            transfer::packWaveRows(indices.data.data(), groups,
                                   mapping.ns_tile, row0, nrows,
                                   indices.cols, sizeof(std::uint16_t),
                                   dst);
        };
        return chan->stage(std::move(req));
    };

    std::size_t tickets[2] = {0, 0};
    if (staged)
        tickets[0] = stageWave(0);
    double prev_compute_s = 0.0;
    for (std::size_t w = 0; w < waves; ++w) {
        const std::size_t row0 = w * rpw;
        const std::size_t nrows = std::min(rpw, mapping.ns_tile - row0);
        const std::uint16_t *base = indices.data.data();
        if (staged) {
            base = reinterpret_cast<const std::uint16_t *>(
                chan->wait(tickets[w % 2]).data());
            // Fill of wave w+1 proceeds on the transfer thread while
            // this wave computes below — the overlap itself.
            if (w + 1 < waves)
                tickets[(w + 1) % 2] = stageWave(w + 1);
        }
        parallelFor(groups * blocks_per_group, [&](std::size_t item) {
            runBlock(item,
                     base + (item / blocks_per_group) * nrows * indices.cols,
                     row0, nrows);
        });
        if (staged) {
            const double frac = static_cast<double>(nrows) / ns_total;
            const double wave_transfer_s = result.cost.t_sub_index * frac;
            finishBurst(*chan, tickets[w % 2],
                        groups * nrows * indices.cols *
                            sizeof(std::uint16_t),
                        wave_transfer_s);
            // Wave w's transfer (w >= 1) hid behind wave w-1's
            // compute: at most the shorter of the two modeled times.
            if (w > 0)
                result.transfer.hidden_model_s +=
                    std::min(wave_transfer_s, prev_compute_s);
            prev_compute_s = result.cost.microKernelTotal() * frac;
        }
    }
    if (staged) {
        static obs::Gauge &g_overlap = reg.gauge("transfer.overlap_frac");
        g_overlap.set(result.transfer.overlapFrac());
        span.attr("transfer_hidden_s", result.transfer.hidden_model_s);
    }

    // ---- Fault ladder, stage 2: accounting ---------------------------
    if (host_fallback) {
        // The host served the whole operator.
        result.fault.host_fallback = true;
        reg.counter("fault.lut.host_fallbacks").add();
        span.attr("host_fallback", std::uint64_t{1});
    } else if (faults != nullptr) {
        // Deterministic aggregation after the parallel pass (each tile
        // outcome had exactly one writer).
        double max_tile_extra = 0.0;
        std::size_t escalated = 0;
        for (const TileOutcome &oc : outcomes) {
            result.fault.transient_crashes += oc.transient;
            result.fault.lut_bitflips += oc.bitflips;
            result.fault.checksum_mismatches += oc.corruptions;
            result.fault.stalls += oc.stalls;
            result.fault.retries += oc.retries;
            escalated += oc.escalated ? 1 : 0;
            max_tile_extra = std::max(max_tile_extra, oc.extra_s);
        }

        // Stall/retry terms for the analytical timing: lock-step PEs
        // finish with the slowest tile's recovery chain; degraded mode
        // serializes the survivors into `waves` rounds; escalated tiles
        // recompute serially on the host.
        std::size_t remapped = 0;
        if (remap.legal) {
            result.fault.added_latency_s +=
                static_cast<double>(remap.waves - 1) * attempt_cost;
            for (std::size_t tile = 0; tile < tiles; ++tile)
                remapped += remap.tile_owner[tile] != tile ? 1 : 0;
        }
        result.fault.tiles_remapped = remapped + escalated;
        result.fault.added_latency_s +=
            max_tile_extra + static_cast<double>(escalated) * attempt_cost;

        reg.counter("fault.injected.pe_transient")
            .add(result.fault.transient_crashes);
        reg.counter("fault.injected.lut_bitflip")
            .add(result.fault.lut_bitflips);
        reg.counter("fault.injected.transfer_corrupt")
            .add(result.fault.checksum_mismatches);
        reg.counter("fault.injected.transfer_stall")
            .add(result.fault.stalls);
        reg.counter("fault.lut.retries").add(result.fault.retries);
        reg.counter("fault.lut.checksum_mismatches")
            .add(result.fault.checksum_mismatches +
                 result.fault.lut_bitflips);
        reg.counter("fault.lut.tiles_remapped")
            .add(result.fault.tiles_remapped);
        reg.histogram("fault.lut.added_latency_s")
            .record(result.fault.added_latency_s);

        if (!result.fault.faultFree()) {
            obs::TraceSpan recover("fault.recover");
            recover.attr("retries",
                         static_cast<std::uint64_t>(result.fault.retries));
            recover.attr("remapped", static_cast<std::uint64_t>(
                                         result.fault.tiles_remapped));
            recover.attr("added_s", result.fault.added_latency_s);
        }
        span.attr("fault_retries",
                  static_cast<std::uint64_t>(result.fault.retries));
        span.attr("fault_added_s", result.fault.added_latency_s);
    }

    // Bias is applied host-side after gathering (element-wise op).
    layer.addBiasRows(out);
    return result;
}

} // namespace pimdl
