/**
 * @file
 * Host<->PIM transfer engine: size-aware burst formation over a lowered
 * plan's HostPimTransfer nodes, priced on the platform's saturating
 * bandwidth curves plus a per-burst setup latency.
 *
 * The "UPMEM Unleashed" playbook (PAPERS.md) observes that commodity
 * DRAM-PIM transfer APIs are latency-dominated for small payloads: each
 * transfer call pays a fixed descriptor/rank-sync setup, and the
 * effective bandwidth of a payload follows bw(bytes) = peak * bytes /
 * (bytes + half_size). The engine exploits the one structural freedom a
 * chain-shaped inference plan leaves: static LUT re-staging payloads
 * (PlanNode::lut_stage_bytes, set by lowering on platforms without
 * resident LUTs) have no data dependency on the forward pass, so they
 * can be merged across operators into large scatter bursts — fewer
 * setups, higher point on the curve — or eliminated entirely by the
 * resident placement manager (resident.h). Activation payloads (index
 * uploads, output gathers) are chain-dependent and stay one burst each;
 * coalescing never merges across a true dependency.
 *
 * The pass annotates the plan (burst ids on transfer nodes) and returns
 * the burst list; it never changes node count, dependencies, or the
 * default analytical cost of the plan, so every existing golden
 * estimate is untouched. Engine pricing is an overlay consumed by the
 * runtime executor, bench_transfer, and the fig. 11 breakdown.
 */

#ifndef PIMDL_TRANSFER_TRANSFER_H
#define PIMDL_TRANSFER_TRANSFER_H

#include <cstddef>
#include <vector>

#include "pim/platform.h"
#include "plan/plan.h"

namespace pimdl {
namespace transfer {

/** Which host-link bandwidth curve a payload rides. */
enum class LinkPattern
{
    /** Index tiles replicated to every PE of a group. */
    Broadcast,
    /** Distinct LUT tile per PE (UPMEM re-staging). */
    Scatter,
    /** Per-PE output collection. */
    Gather,
};

/** Human-readable pattern name. */
const char *linkPatternName(LinkPattern pattern);

/** The bandwidth curve @p pattern rides on @p platform. */
const BandwidthCurve &curveFor(const PimPlatformConfig &platform,
                               LinkPattern pattern);

/** Upper bound on one coalesced staging burst's payload, bytes
 * (bounds the host staging memory the burst occupies). */
inline constexpr double kMaxBurstBytes = 64.0 * 1024 * 1024;

/** Consecutive encoder layers one staging burst may span. Staging
 * payloads are prefetchable static weights, so the window trades
 * staging memory for curve position. */
inline constexpr std::size_t kLayerWindow = 2;

/** One plan payload's contribution to a burst. */
struct BurstSlice
{
    /** PlanNode::id of the transfer node the bytes came from. */
    std::size_t node_id = 0;
    double bytes = 0.0;
};

/** One coalesced host<->PIM transfer. */
struct TransferBurst
{
    std::size_t id = 0;
    LinkPattern pattern = LinkPattern::Broadcast;
    TransferDirection direction = TransferDirection::HostToPim;
    /** Total payload, bytes (sum of slices). */
    double bytes = 0.0;
    /** True for static LUT re-staging (prefetchable, residency-
     * eligible); false for chain-dependent activation payloads. */
    bool lut_staging = false;
    /** Encoder-layer span of the merged payloads. */
    std::size_t first_layer = 0;
    std::size_t last_layer = 0;
    std::vector<BurstSlice> slices;

    std::size_t pieces() const { return slices.size(); }
};

/** The burst-formation result over one plan. */
struct BurstPlan
{
    std::vector<TransferBurst> bursts;
    /** Sum of all transfer payloads, bytes (== the plan's transfer
     * bytes; burst formation conserves bytes by construction). */
    double total_bytes = 0.0;
    /** Bytes that joined a multi-piece burst (the coalescing win). */
    double coalesced_bytes = 0.0;
    /** Payload pieces merged away (pieces - bursts over the staging
     * subset): each one saves a link setup. */
    std::size_t merged_pieces = 0;

    /** Engine pricing: per burst, one setup + the whole payload at the
     * curve point of the burst size. */
    double burstSeconds(const PimPlatformConfig &platform) const;
    /** Flat-payload baseline: every piece is its own burst, paying its
     * own setup and riding the curve at its own (smaller) size; that
     * plan has bursts.size() + merged_pieces bursts. */
    double flatSeconds(const PimPlatformConfig &platform) const;
};

/** Seconds for one coalesced burst of @p bytes: link setup + payload
 * at the bandwidth-curve point of the full burst. */
double burstSeconds(const PimPlatformConfig &platform, LinkPattern pattern,
                    double bytes);

/**
 * Forms size-aware bursts over @p plan's HostPimTransfer nodes and
 * annotates each node's burst_id with the burst that carries its
 * largest payload share. Activation payloads (indices, outputs) become
 * one burst each; static LUT staging payloads merge across operators
 * within kLayerWindow layers and kMaxBurstBytes. Node count, deps, and
 * transfer_bytes are never modified. Pricing is separate
 * (BurstPlan::burstSeconds/flatSeconds).
 */
BurstPlan planTransferBursts(Plan &plan);

} // namespace transfer
} // namespace pimdl

#endif // PIMDL_TRANSFER_TRANSFER_H
