#include "transfer.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace pimdl {
namespace transfer {

const char *
linkPatternName(LinkPattern pattern)
{
    switch (pattern) {
      case LinkPattern::Broadcast:
        return "broadcast";
      case LinkPattern::Scatter:
        return "scatter";
      case LinkPattern::Gather:
        return "gather";
    }
    return "?";
}

const BandwidthCurve &
curveFor(const PimPlatformConfig &platform, LinkPattern pattern)
{
    switch (pattern) {
      case LinkPattern::Broadcast:
        return platform.host_broadcast;
      case LinkPattern::Scatter:
        return platform.host_scatter;
      case LinkPattern::Gather:
        return platform.host_gather;
    }
    return platform.host_broadcast;
}

double
burstSeconds(const PimPlatformConfig &platform, LinkPattern pattern,
             double bytes)
{
    if (bytes <= 0.0)
        return 0.0;
    return platform.link_setup_latency_s +
           curveFor(platform, pattern).seconds(bytes);
}

double
BurstPlan::burstSeconds(const PimPlatformConfig &platform) const
{
    double total = 0.0;
    for (const TransferBurst &burst : bursts)
        total += transfer::burstSeconds(platform, burst.pattern,
                                        burst.bytes);
    return total;
}

double
BurstPlan::flatSeconds(const PimPlatformConfig &platform) const
{
    double total = 0.0;
    for (const TransferBurst &burst : bursts)
        for (const BurstSlice &slice : burst.slices)
            total += transfer::burstSeconds(platform, burst.pattern,
                                            slice.bytes);
    return total;
}

BurstPlan
planTransferBursts(Plan &plan)
{
    BurstPlan result;

    // Id of the staging burst currently open for merging (an index,
    // not a pointer: newBurst may reallocate the vector).
    std::size_t open_staging = kNoBurstId;

    const auto newBurst = [&](LinkPattern pattern,
                              TransferDirection direction,
                              std::size_t layer,
                              bool staging) -> std::size_t {
        TransferBurst burst;
        burst.id = result.bursts.size();
        burst.pattern = pattern;
        burst.direction = direction;
        burst.lut_staging = staging;
        burst.first_layer = layer;
        burst.last_layer = layer;
        result.bursts.push_back(std::move(burst));
        return result.bursts.back().id;
    };

    for (PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::HostPimTransfer)
            continue;
        const double stage_bytes =
            node.direction == TransferDirection::HostToPim
                ? node.lut_stage_bytes
                : 0.0;
        const double act_bytes = node.transfer_bytes - stage_bytes;
        PIMDL_REQUIRE(act_bytes >= 0.0,
                      "lut_stage_bytes exceeds transfer_bytes");

        std::size_t act_burst_id = kNoBurstId;
        if (act_bytes > 0.0) {
            // Activation payloads carry a true data dependency on the
            // chain (indices depend on the CCS, outputs on the LUT
            // op), so each stays its own burst: coalescing across a
            // dependency would reorder the computation it feeds.
            act_burst_id = newBurst(
                node.direction == TransferDirection::HostToPim
                    ? LinkPattern::Broadcast
                    : LinkPattern::Gather,
                node.direction, node.layer, /*staging=*/false);
            TransferBurst &burst = result.bursts[act_burst_id];
            burst.slices.push_back({node.id, act_bytes});
            burst.bytes = act_bytes;
        }

        std::size_t stage_burst_id = kNoBurstId;
        if (stage_bytes > 0.0) {
            // Static-weight staging is free of the chain: it may merge
            // past intervening activation bursts (the engine prefetches
            // the next operators' LUTs while earlier ones compute),
            // bounded by the burst size and layer window.
            const bool fits =
                open_staging != kNoBurstId &&
                result.bursts[open_staging].bytes + stage_bytes <=
                    kMaxBurstBytes &&
                node.layer <
                    result.bursts[open_staging].first_layer + kLayerWindow;
            stage_burst_id =
                fits ? open_staging
                     : newBurst(LinkPattern::Scatter,
                                TransferDirection::HostToPim, node.layer,
                                /*staging=*/true);
            TransferBurst &burst = result.bursts[stage_burst_id];
            burst.slices.push_back({node.id, stage_bytes});
            burst.bytes += stage_bytes;
            burst.last_layer = std::max(burst.last_layer, node.layer);
            open_staging = stage_burst_id;
        }

        // The node's annotation points at the burst carrying its
        // larger payload share (for up-transfers on non-resident
        // platforms that is the staging burst).
        node.burst_id =
            stage_bytes >= act_bytes && stage_burst_id != kNoBurstId
                ? stage_burst_id
                : act_burst_id;
    }

    for (const TransferBurst &burst : result.bursts) {
        result.total_bytes += burst.bytes;
        if (burst.pieces() > 1) {
            result.coalesced_bytes += burst.bytes;
            result.merged_pieces += burst.pieces() - 1;
        }
    }

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_bursts = reg.counter("transfer.bursts");
    static obs::Counter &c_coalesced =
        reg.counter("transfer.coalesced_bytes");
    static obs::Counter &c_merged =
        reg.counter("transfer.merged_pieces");
    c_bursts.add(result.bursts.size());
    c_coalesced.add(static_cast<std::uint64_t>(result.coalesced_bytes));
    c_merged.add(result.merged_pieces);
    return result;
}

} // namespace transfer
} // namespace pimdl
