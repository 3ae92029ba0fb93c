#include "autotuner.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pimdl {

namespace {

/**
 * Cap on the number of tile-factor candidates per dimension; large
 * lists are thinned (endpoints kept) to bound Algorithm 1's walk.
 */
constexpr std::size_t kMaxTileCandidates = 8;

bool
isPowerOfTwo(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

AutoTuner::AutoTuner(PimPlatformConfig platform, AutoTuneOptions options)
    : platform_(std::move(platform)), options_(options)
{}

LutCostBreakdown
AutoTuner::evaluateCandidate(const LutWorkloadShape &shape,
                             const LutMapping &mapping) const
{
    if (timing_)
        return timing_->lutCost(shape, mapping);
    return evaluateLutMapping(platform_, shape, mapping);
}

std::vector<std::size_t>
AutoTuner::subLutCandidates(std::size_t total) const
{
    // Sub-LUT factors use the complete divisor list (never thinned, not
    // restricted to powers of two): Eq. 5's exact-PE pairing needs e.g.
    // fs = 144 for F = 2304 on 1024 PEs.
    std::vector<std::size_t> candidates;
    for (std::size_t d = 1; d * d <= total; ++d) {
        if (total % d != 0)
            continue;
        candidates.push_back(d);
        if (d != total / d)
            candidates.push_back(total / d);
    }
    std::sort(candidates.begin(), candidates.end());
    return candidates;
}

std::vector<std::size_t>
AutoTuner::tileCandidates(std::size_t total) const
{
    std::vector<std::size_t> candidates;
    for (std::size_t d = 1; d <= total; ++d) {
        if (total % d != 0)
            continue;
        if (!isPowerOfTwo(d) && d != total)
            continue;
        candidates.push_back(d);
    }

    // Thin oversized candidate lists (keeping the endpoints) so the
    // exhaustive Algorithm-1 walk stays tractable on big workloads.
    if (candidates.size() > kMaxTileCandidates) {
        std::vector<std::size_t> thinned;
        thinned.reserve(kMaxTileCandidates);
        const double stride = static_cast<double>(candidates.size() - 1) /
                              static_cast<double>(kMaxTileCandidates - 1);
        for (std::size_t i = 0; i < kMaxTileCandidates; ++i) {
            const std::size_t idx =
                static_cast<std::size_t>(i * stride + 0.5);
            if (thinned.empty() || thinned.back() != candidates[idx])
                thinned.push_back(candidates[idx]);
        }
        return thinned;
    }
    return candidates;
}

std::vector<std::pair<std::size_t, std::size_t>>
AutoTuner::legalSubLutTilings(const LutWorkloadShape &shape) const
{
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t ns : subLutCandidates(shape.n)) {
        const std::size_t groups = shape.n / ns;
        if (groups > platform_.num_pes)
            continue;
        for (std::size_t fs : subLutCandidates(shape.f)) {
            const std::size_t pes = groups * (shape.f / fs);
            if (pes > platform_.num_pes)
                continue;
            if (options_.require_full_pe_use && pes != platform_.num_pes)
                continue;
            pairs.emplace_back(ns, fs);
        }
    }
    return pairs;
}

AutoTuneResult
AutoTuner::kernelSearch(const LutWorkloadShape &shape, std::size_t ns_tile,
                        std::size_t fs_tile) const
{
    AutoTuneResult best;

    const auto nm_candidates = tileCandidates(ns_tile);
    const auto fm_candidates = tileCandidates(fs_tile);
    const auto cbm_candidates = tileCandidates(shape.cb);

    std::size_t pruned = 0;
    auto consider = [&](const LutMapping &mapping) {
        const LutCostBreakdown cost = evaluateCandidate(shape, mapping);
        ++best.evaluated;
        if (!cost.legal) {
            ++pruned;
            return;
        }
        if (!best.found || cost.total() < best.cost.total()) {
            best.found = true;
            best.mapping = mapping;
            best.cost = cost;
        }
    };

    LutMapping mapping;
    mapping.ns_tile = ns_tile;
    mapping.fs_tile = fs_tile;

    for (std::size_t nm : nm_candidates) {
        mapping.nm_tile = nm;
        for (std::size_t fm : fm_candidates) {
            mapping.fm_tile = fm;
            for (std::size_t cbm : cbm_candidates) {
                mapping.cbm_tile = cbm;
                for (TraversalOrder order : kAllTraversalOrders) {
                    mapping.order = order;

                    if (!options_.fix_scheme ||
                        options_.scheme == LutLoadScheme::Static) {
                        mapping.scheme = LutLoadScheme::Static;
                        mapping.cb_load_tile = cbm;
                        mapping.f_load_tile = fm;
                        consider(mapping);
                    }
                    if (!options_.fix_scheme ||
                        options_.scheme == LutLoadScheme::CoarseGrain) {
                        mapping.scheme = LutLoadScheme::CoarseGrain;
                        for (std::size_t cbl : tileCandidates(cbm)) {
                            mapping.cb_load_tile = cbl;
                            for (std::size_t fl : tileCandidates(fm)) {
                                mapping.f_load_tile = fl;
                                consider(mapping);
                            }
                        }
                    }
                    if (!options_.fix_scheme ||
                        options_.scheme == LutLoadScheme::FineGrain) {
                        mapping.scheme = LutLoadScheme::FineGrain;
                        mapping.cb_load_tile = 1;
                        for (std::size_t fl : tileCandidates(fm)) {
                            mapping.f_load_tile = fl;
                            consider(mapping);
                        }
                    }
                }
            }
        }
    }

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &evaluated =
        reg.counter("tuner.mappings_evaluated");
    static obs::Counter &pruned_total =
        reg.counter("tuner.mappings_pruned");
    evaluated.add(best.evaluated);
    pruned_total.add(pruned);
    return best;
}

AutoTuneResult
AutoTuner::tune(const LutWorkloadShape &shape) const
{
    obs::TraceSpan span("tuner.tune");
    span.attr("n", static_cast<std::uint64_t>(shape.n));
    span.attr("cb", static_cast<std::uint64_t>(shape.cb));
    span.attr("ct", static_cast<std::uint64_t>(shape.ct));
    span.attr("f", static_cast<std::uint64_t>(shape.f));
    const auto wall_start = std::chrono::steady_clock::now();
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &searches = reg.counter("tuner.searches");
    static obs::Histogram &wall_hist =
        reg.histogram("tuner.search_wall_s");
    searches.add();
    auto search = [&](bool full_pe) {
        AutoTuneResult best;
        for (const auto &[ns, fs] : legalSubLutTilings(shape)) {
            if (full_pe &&
                (shape.n / ns) * (shape.f / fs) != platform_.num_pes)
                continue;
            AutoTuneResult candidate = kernelSearch(shape, ns, fs);
            best.evaluated += candidate.evaluated;
            if (candidate.found &&
                (!best.found ||
                 candidate.cost.total() < best.cost.total())) {
                best.found = candidate.found;
                best.mapping = candidate.mapping;
                best.cost = candidate.cost;
            }
        }
        return best;
    };

    // Eq. 5 with equality: the partition occupies every PE. Shapes whose
    // divisors cannot tile all PEs exactly fall back to partial use.
    AutoTuneResult best = search(true);
    if (!best.found && !options_.require_full_pe_use) {
        AutoTuneResult relaxed = search(false);
        relaxed.evaluated += best.evaluated;
        best = relaxed;
    }

    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    wall_hist.record(wall_s);
    span.attr("evaluated", static_cast<std::uint64_t>(best.evaluated));
    span.attr("found", best.found ? "true" : "false");
    return best;
}

} // namespace pimdl
