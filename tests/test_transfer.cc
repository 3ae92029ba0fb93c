/**
 * @file
 * Transfer-engine tests: burst coalescing over lowered plans (byte
 * conservation, dependency safety), scatter/gather layout transforms,
 * resident-LUT LRU placement (including a concurrent stress), the
 * double-buffered staging scheduler (bit-exactness vs the synchronous
 * baseline, per-burst fault draws), ManualClock-deterministic overlap
 * accounting through the distributed executor, and the transaction
 * backend's burst command stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "backend/transaction.h"
#include "common/clock.h"
#include "common/rng.h"
#include "host/host_model.h"
#include "lutnn/converter.h"
#include "nn/model_config.h"
#include "plan/lowering.h"
#include "runtime/lut_executor.h"
#include "transfer/layout.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"
#include "transfer/transfer.h"

namespace pimdl {
namespace {

Plan
loweredUpmemPlan(const PimPlatformConfig &platform)
{
    LoweringOptions options;
    options.platform = &platform;
    return lowerTransformer(bertBase(), LutNnParams{4, 16},
                            ExecutionMode::PimDl, options);
}

double
planTransferBytes(const Plan &plan)
{
    double total = 0.0;
    for (const PlanNode &node : plan.nodes)
        if (node.kind == PlanOpKind::HostPimTransfer)
            total += node.transfer_bytes;
    return total;
}

// ---------------------------------------------------------------------
// Burst formation: coalescing correctness.
// ---------------------------------------------------------------------

TEST(TransferBursts, CoalescingConservesBytesAndRespectsDependencies)
{
    const PimPlatformConfig upmem = upmemPlatform();
    Plan plan = loweredUpmemPlan(upmem);
    const double plan_bytes = planTransferBytes(plan);

    const transfer::BurstPlan bursts = transfer::planTransferBursts(plan);

    // Byte conservation: burst formation never invents or drops payload.
    double burst_bytes = 0.0;
    for (const transfer::TransferBurst &b : bursts.bursts) {
        double slice_bytes = 0.0;
        for (const transfer::BurstSlice &s : b.slices)
            slice_bytes += s.bytes;
        EXPECT_DOUBLE_EQ(b.bytes, slice_bytes) << "burst " << b.id;
        burst_bytes += b.bytes;
    }
    EXPECT_DOUBLE_EQ(burst_bytes, plan_bytes);
    EXPECT_DOUBLE_EQ(bursts.total_bytes, plan_bytes);

    // Chain-dependent activation payloads are never merged; only static
    // LUT staging coalesces. UPMEM is an offload platform, so staging
    // bursts must exist and some must actually have merged.
    bool merged_staging = false;
    for (const transfer::TransferBurst &b : bursts.bursts) {
        if (!b.lut_staging) {
            EXPECT_EQ(b.pieces(), 1u)
                << "activation burst " << b.id << " merged across a "
                << "data dependency";
        } else {
            EXPECT_EQ(b.direction, TransferDirection::HostToPim);
            EXPECT_EQ(b.pattern, transfer::LinkPattern::Scatter);
            if (b.pieces() > 1)
                merged_staging = true;
        }
    }
    EXPECT_TRUE(merged_staging);
    EXPECT_GT(bursts.coalesced_bytes, 0.0);
    EXPECT_GT(bursts.merged_pieces, 0u);

    // Every transfer node is annotated with a live burst id.
    for (const PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::HostPimTransfer)
            continue;
        ASSERT_NE(node.burst_id, kNoBurstId) << "node " << node.id;
        ASSERT_LT(node.burst_id, bursts.bursts.size());
        const transfer::TransferBurst &b = bursts.bursts[node.burst_id];
        const bool listed =
            std::any_of(b.slices.begin(), b.slices.end(),
                        [&](const transfer::BurstSlice &s) {
                            return s.node_id == node.id;
                        });
        EXPECT_TRUE(listed) << "node " << node.id
                            << " annotated with a burst that does not "
                            << "carry it";
    }

    // The plan itself is untouched: node count, dependencies, and the
    // analytical transfer bytes are exactly the lowered ones.
    EXPECT_NO_THROW(plan.validate());
    EXPECT_DOUBLE_EQ(planTransferBytes(plan), plan_bytes);
}

TEST(TransferBursts, PolicyWindowAndSizeBoundMerging)
{
    const PimPlatformConfig upmem = upmemPlatform();
    Plan plan = loweredUpmemPlan(upmem);
    const transfer::BurstPlan bursts = transfer::planTransferBursts(plan);

    // Every staging burst stays inside the layer window and size bound,
    // and a new one opens only when the next piece would break one of
    // them (greedy merging, so the bounds are what stops it).
    const transfer::TransferBurst *open = nullptr;
    bool window_reached = false;
    for (const transfer::TransferBurst &b : bursts.bursts) {
        if (!b.lut_staging)
            continue;
        EXPECT_LT(b.last_layer, b.first_layer + transfer::kLayerWindow)
            << "burst " << b.id << " spans past its layer window";
        EXPECT_LE(b.bytes, transfer::kMaxBurstBytes) << "burst " << b.id;
        if (b.last_layer + 1 == b.first_layer + transfer::kLayerWindow &&
            b.pieces() > 1)
            window_reached = true;
        if (open != nullptr) {
            const std::size_t window_end =
                open->first_layer + transfer::kLayerWindow;
            const bool window_full = b.first_layer >= window_end;
            const bool size_full = open->bytes + b.slices.front().bytes >
                                   transfer::kMaxBurstBytes;
            EXPECT_TRUE(window_full || size_full)
                << "burst " << b.id << " opened while burst " << open->id
                << " still had room";
        }
        open = &b;
    }
    EXPECT_TRUE(window_reached)
        << "BERT-base staging must fill a whole layer window";
}

TEST(TransferBursts, CoalescedPricingBeatsFlatBaseline)
{
    const PimPlatformConfig upmem = upmemPlatform();
    Plan plan = loweredUpmemPlan(upmem);
    const transfer::BurstPlan coalesced =
        transfer::planTransferBursts(plan);

    // Merged bursts pay one setup and ride a higher curve point, so the
    // engine pricing is strictly below the flat per-payload baseline.
    EXPECT_LT(coalesced.burstSeconds(upmem),
              coalesced.flatSeconds(upmem));

    // The flat baseline is every plan payload as its own burst: one
    // piece per merged-away piece plus one per burst, priced straight
    // from the plan's transfer nodes.
    std::size_t pieces = 0;
    for (const transfer::TransferBurst &b : coalesced.bursts)
        pieces += b.pieces();
    EXPECT_EQ(pieces, coalesced.bursts.size() + coalesced.merged_pieces);
    double flat_s = 0.0;
    std::size_t payloads = 0;
    for (const PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::HostPimTransfer)
            continue;
        const bool up = node.direction == TransferDirection::HostToPim;
        const double stage = up ? node.lut_stage_bytes : 0.0;
        const double act = node.transfer_bytes - stage;
        if (act > 0.0) {
            ++payloads;
            flat_s += transfer::burstSeconds(
                upmem,
                up ? transfer::LinkPattern::Broadcast
                   : transfer::LinkPattern::Gather,
                act);
        }
        if (stage > 0.0) {
            ++payloads;
            flat_s += transfer::burstSeconds(
                upmem, transfer::LinkPattern::Scatter, stage);
        }
    }
    EXPECT_EQ(payloads, pieces);
    EXPECT_DOUBLE_EQ(coalesced.flatSeconds(upmem), flat_s)
        << "the flat baseline must not depend on burst formation";
}

// ---------------------------------------------------------------------
// Layout transforms: pure permutations.
// ---------------------------------------------------------------------

TEST(TransferLayout, ColumnTilePackUnpackIsIdentity)
{
    constexpr std::size_t kRows = 6, kCols = 12, kTile = 4, kElem = 2;
    std::vector<std::uint8_t> src(kRows * kCols * kElem);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 37 + 11);

    std::vector<std::uint8_t> packed(src.size(), 0);
    std::vector<std::uint8_t> round(src.size(), 0);
    transfer::packColumnTiles(src.data(), kRows, kCols, kTile, kElem,
                              packed.data());
    EXPECT_NE(packed, src) << "packing must actually permute";
    transfer::unpackColumnTiles(packed.data(), kRows, kCols, kTile,
                                kElem, round.data());
    EXPECT_EQ(round, src);

    // Lane l's tile is one contiguous block of all rows x tile columns.
    const std::size_t lane = 1;
    const std::uint8_t *tile =
        packed.data() + lane * kRows * kTile * kElem;
    for (std::size_t r = 0; r < kRows; ++r)
        for (std::size_t c = 0; c < kTile; ++c)
            for (std::size_t e = 0; e < kElem; ++e)
                EXPECT_EQ(tile[(r * kTile + c) * kElem + e],
                          src[(r * kCols + lane * kTile + c) * kElem +
                              e]);
}

TEST(TransferLayout, WaveRowsGatherGroupSlices)
{
    constexpr std::size_t kGroups = 3, kGroupRows = 5, kCols = 4;
    constexpr std::size_t kRow0 = 2, kWaveRows = 2, kElem = 2;
    std::vector<std::uint8_t> src(kGroups * kGroupRows * kCols * kElem);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 53 + 7);

    std::vector<std::uint8_t> staged(kGroups * kWaveRows * kCols * kElem,
                                     0);
    transfer::packWaveRows(src.data(), kGroups, kGroupRows, kRow0,
                           kWaveRows, kCols, kElem, staged.data());
    for (std::size_t g = 0; g < kGroups; ++g) {
        const std::uint8_t *block =
            staged.data() + g * kWaveRows * kCols * kElem;
        const std::uint8_t *rows =
            src.data() + (g * kGroupRows + kRow0) * kCols * kElem;
        EXPECT_EQ(std::memcmp(block, rows, kWaveRows * kCols * kElem), 0)
            << "group " << g;
    }
}

// ---------------------------------------------------------------------
// Resident-LUT placement.
// ---------------------------------------------------------------------

TEST(ResidentLut, LruEvictionUnderCapacityPressure)
{
    transfer::ResidentLutManager mgr(100.0);

    EXPECT_FALSE(mgr.touch(1, 40.0)); // miss, pin
    EXPECT_FALSE(mgr.touch(2, 40.0)); // miss, pin
    EXPECT_TRUE(mgr.touch(1, 40.0));  // hit refreshes 1's recency
    EXPECT_FALSE(mgr.touch(3, 40.0)); // evicts 2 (LRU), not 1

    EXPECT_TRUE(mgr.touch(1, 40.0));
    EXPECT_TRUE(mgr.touch(3, 40.0));
    EXPECT_FALSE(mgr.touch(2, 40.0)) << "2 must have been evicted";

    transfer::ResidentLutStats stats = mgr.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_GE(stats.evictions, 2u);
    EXPECT_LE(stats.resident_bytes, mgr.capacityBytes());
    EXPECT_EQ(stats.entries, 2u);

    // Oversized tables never pin (and never evict the working set,
    // which is {2, 3} after the eviction churn above).
    EXPECT_FALSE(mgr.touch(9, 1000.0));
    EXPECT_FALSE(mgr.touch(9, 1000.0)) << "oversized is always a miss";
    EXPECT_TRUE(mgr.touch(2, 40.0))
        << "an oversized miss must not evict pinned tables";
    EXPECT_TRUE(mgr.touch(3, 40.0));

    mgr.clear();
    stats = mgr.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_DOUBLE_EQ(stats.resident_bytes, 0.0);
    EXPECT_FALSE(mgr.touch(1, 40.0)) << "clear() unpins everything";

    EXPECT_THROW(transfer::ResidentLutManager(0.0), std::runtime_error);
    const PimPlatformConfig upmem = upmemPlatform();
    EXPECT_GT(transfer::residentLutCapacityBytes(upmem), 0.0);
    EXPECT_LT(transfer::residentLutCapacityBytes(upmem),
              static_cast<double>(upmem.num_pes) *
                  static_cast<double>(upmem.pe_local_mem_bytes));
}

TEST(ResidentLut, ConcurrentTouchStressKeepsAccountingConsistent)
{
    constexpr std::size_t kThreads = 8, kTouches = 2000;
    constexpr double kBytes = 64.0;
    // Capacity for half the key space: constant eviction churn.
    transfer::ResidentLutManager mgr(kBytes * 8);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&mgr, t] {
            Rng rng(0xc0ffee + t);
            for (std::size_t i = 0; i < kTouches; ++i)
                mgr.touch(
                    static_cast<std::uint64_t>(rng.uniform() * 16.0),
                    kBytes);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const transfer::ResidentLutStats stats = mgr.stats();
    EXPECT_EQ(stats.hits + stats.misses, kThreads * kTouches);
    EXPECT_LE(stats.resident_bytes, mgr.capacityBytes());
    EXPECT_LE(stats.entries, 8u);
    EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------
// Staging scheduler: double buffer and per-burst faults.
// ---------------------------------------------------------------------

transfer::StageRequest
patternRequest(std::size_t bytes, std::uint8_t tag, double modeled_s)
{
    transfer::StageRequest req;
    req.bytes = bytes;
    req.modeled_seconds = modeled_s;
    req.fill = [tag](std::uint8_t *dst, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = static_cast<std::uint8_t>(tag + i * 3);
    };
    return req;
}

TEST(TransferScheduler, DoubleBufferDeliversEveryBurstInOrder)
{
    for (const bool synchronous : {false, true}) {
        transfer::TransferScheduler::Options options;
        options.synchronous = synchronous;
        transfer::TransferScheduler scheduler(options);
        auto channel = scheduler.openChannel("test.channel");

        // More bursts than slots: the ticket ping-pong plus release()
        // back-pressure must still deliver each fill bit-exactly.
        constexpr std::size_t kBursts = 9, kBytes = 4096;
        std::size_t pending[2] = {0, 0};
        std::size_t in_flight = 0;
        for (std::size_t b = 0; b < kBursts; ++b) {
            const std::size_t ticket = channel->stage(patternRequest(
                kBytes, static_cast<std::uint8_t>(b), 1e-6));
            pending[ticket] = b;
            if (++in_flight < 2 && b + 1 < kBursts)
                continue; // keep both slots busy (the overlap window)
            const std::size_t done = (b + 1) - in_flight;
            const std::size_t done_ticket = done % 2;
            ASSERT_EQ(pending[done_ticket], done);
            const std::vector<std::uint8_t> &buf =
                channel->wait(done_ticket);
            ASSERT_EQ(buf.size(), kBytes);
            for (std::size_t i = 0; i < kBytes; ++i)
                ASSERT_EQ(buf[i],
                          static_cast<std::uint8_t>(done + i * 3))
                    << "burst " << done << " byte " << i
                    << (synchronous ? " (sync)" : " (threaded)");
            const transfer::StagedBurstReport report =
                channel->report(done_ticket);
            EXPECT_EQ(report.corrupt_retries, 0u);
            EXPECT_EQ(report.stalls, 0u);
            channel->release(done_ticket);
            --in_flight;
        }
        for (std::size_t done = kBursts - in_flight; done < kBursts;
             ++done) {
            channel->wait(done % 2);
            channel->release(done % 2);
        }

        const transfer::TransferSchedulerStats stats =
            scheduler.stats();
        EXPECT_EQ(stats.bursts_staged, kBursts);
        EXPECT_DOUBLE_EQ(stats.staged_bytes,
                         static_cast<double>(kBursts * kBytes));
    }
}

TEST(TransferScheduler, ChannelDestructionDrainsInFlightFills)
{
    transfer::TransferScheduler scheduler({});
    for (int round = 0; round < 4; ++round) {
        auto channel = scheduler.openChannel("test.abandon");
        channel->stage(patternRequest(1 << 16, 0x5a, 1e-6));
        channel->stage(patternRequest(1 << 16, 0xa5, 1e-6));
        // Drop the channel without wait()/release() — the failBatch /
        // drain path. The dtor must block until the transfer thread is
        // done with the slots, never crash or hang.
    }
    EXPECT_EQ(scheduler.stats().bursts_staged, 8u);
}

TEST(TransferScheduler, CorruptedBurstsAreRetriedToCleanDelivery)
{
    FaultConfig fc;
    fc.seed = 1234;
    fc.transfer_corrupt_rate = 1.0; // every attempt corrupts
    fc.stall_penalty_s = 500e-6;
    const FaultInjector faults(fc);

    ManualClock clock;
    transfer::TransferScheduler::Options options;
    options.clock = &clock;
    options.faults = &faults;
    options.synchronous = true; // deterministic single-thread draws
    transfer::TransferScheduler scheduler(options);
    auto channel = scheduler.openChannel("test.faults");

    constexpr std::size_t kBytes = 512;
    const double modeled_s = 3e-6;
    const std::size_t ticket =
        channel->stage(patternRequest(kBytes, 0x11, modeled_s));
    const std::vector<std::uint8_t> &buf = channel->wait(ticket);
    ASSERT_EQ(buf.size(), kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(0x11 + i * 3))
            << "delivered data must be clean after retries";

    const transfer::StagedBurstReport report = channel->report(ticket);
    // Rate 1.0 burns the whole (default) retry budget, then the final
    // clean refill delivers: max_retries + 1 corrupt draws.
    const RetryPolicy retry;
    EXPECT_EQ(report.corrupt_retries, retry.max_retries + 1);
    double expected = 0.0;
    for (std::size_t r = 0; r < report.corrupt_retries; ++r)
        expected += modeled_s + retry.backoffFor(r);
    expected += report.stalls * fc.stall_penalty_s;
    EXPECT_NEAR(report.added_seconds, expected, 1e-15)
        << "penalties are modeled seconds, not wall time";
    channel->release(ticket);

    EXPECT_DOUBLE_EQ(clock.now(), 0.0)
        << "fault penalties must never sleep the clock";
    EXPECT_EQ(scheduler.stats().corrupt_retries,
              report.corrupt_retries);
}

TEST(TransferScheduler, StallDrawsAreDeterministicPerSequence)
{
    FaultConfig fc;
    fc.seed = 99;
    fc.transfer_stall_rate = 0.5;
    const FaultInjector faults(fc);

    const auto stallPattern = [&faults](std::size_t bursts) {
        transfer::TransferScheduler::Options options;
        options.faults = &faults;
        options.synchronous = true;
        transfer::TransferScheduler scheduler(options);
        auto channel = scheduler.openChannel("test.stalls");
        std::vector<std::size_t> stalls;
        for (std::size_t b = 0; b < bursts; ++b) {
            const std::size_t ticket = channel->stage(
                patternRequest(64, static_cast<std::uint8_t>(b), 1e-6));
            channel->wait(ticket);
            stalls.push_back(channel->report(ticket).stalls);
            channel->release(ticket);
        }
        return stalls;
    };

    const std::vector<std::size_t> first = stallPattern(32);
    const std::vector<std::size_t> second = stallPattern(32);
    EXPECT_EQ(first, second)
        << "per-burst draws are keyed by global sequence: identical "
        << "schedules must see identical stalls";
    const std::size_t total =
        std::accumulate(first.begin(), first.end(), std::size_t{0});
    EXPECT_GT(total, 0u);
    EXPECT_LT(total, 32u) << "rate 0.5 must not stall every burst";
}

// ---------------------------------------------------------------------
// Distributed executor integration: bit-exactness and overlap.
// ---------------------------------------------------------------------

LutLayer
makeLayerNoBias(std::size_t h, std::size_t f, std::size_t v,
                std::size_t ct, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor w(h, f);
    w.fillGaussian(rng);
    Tensor calib(128, h);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    options.quantize_int8 = true;
    return convertLinearLayer(w, {}, calib, options);
}

/** Largest divisor of @p total that is <= cap. */
std::size_t
divisorUpTo(std::size_t total, std::size_t cap)
{
    for (std::size_t d = std::min(cap, total); d >= 1; --d)
        if (total % d == 0)
            return d;
    return 1;
}

LutMapping
mappingFor(std::size_t n, std::size_t f, std::size_t groups,
           std::size_t lanes)
{
    LutMapping m;
    m.ns_tile = n / groups;
    m.fs_tile = f / lanes;
    m.nm_tile = divisorUpTo(m.ns_tile, 8);
    m.fm_tile = divisorUpTo(m.fs_tile, 8);
    m.cbm_tile = 8;
    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 1;
    return m;
}

TEST(TransferExecutor, StagedExecutionIsBitExactAndDeterministic)
{
    const PimPlatformConfig upmem = upmemPlatform();
    LutLayer layer = makeLayerNoBias(16, 24, 2, 8, 70);
    Rng rng(71);
    Tensor input(32, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);
    const LutMapping m = mappingFor(32, 24, 4, 2);

    const DistributedLutResult plain =
        runDistributedLut(upmem, layer, idx, m, false);

    const auto stagedRun = [&](bool synchronous) {
        ManualClock clock;
        transfer::TransferScheduler::Options options;
        options.clock = &clock;
        options.synchronous = synchronous;
        transfer::TransferScheduler scheduler(options);
        LutTransferContext ctx;
        ctx.scheduler = &scheduler;
        return runDistributedLut(upmem, layer, idx, m, false, nullptr,
                                 {}, &ctx);
    };

    const DistributedLutResult threaded = stagedRun(false);
    const DistributedLutResult synchronous = stagedRun(true);

    // Bit-exactness: the wave-staged path computes from re-packed
    // buffers but must reproduce the direct path exactly.
    for (const DistributedLutResult *r : {&threaded, &synchronous}) {
        ASSERT_EQ(r->output.rows(), plain.output.rows());
        ASSERT_EQ(r->output.cols(), plain.output.cols());
        for (std::size_t row = 0; row < plain.output.rows(); ++row)
            for (std::size_t col = 0; col < plain.output.cols(); ++col)
                ASSERT_EQ(r->output(row, col), plain.output(row, col))
                    << "element " << row << "," << col;
    }

    // Overlap accounting is model-based, so threaded and synchronous
    // (and repeated) runs agree exactly — ManualClock never advances.
    EXPECT_GT(threaded.transfer.bursts, 0u);
    EXPECT_GT(threaded.transfer.staged_bytes, 0.0);
    EXPECT_GT(threaded.transfer.transfer_model_s, 0.0);
    EXPECT_GT(threaded.transfer.hidden_model_s, 0.0)
        << "waves past the first must hide transfer behind compute";
    EXPECT_EQ(threaded.transfer.bursts, synchronous.transfer.bursts);
    EXPECT_DOUBLE_EQ(threaded.transfer.staged_bytes,
                     synchronous.transfer.staged_bytes);
    EXPECT_DOUBLE_EQ(threaded.transfer.transfer_model_s,
                     synchronous.transfer.transfer_model_s);
    EXPECT_DOUBLE_EQ(threaded.transfer.hidden_model_s,
                     synchronous.transfer.hidden_model_s);
    const DistributedLutResult repeat = stagedRun(false);
    EXPECT_DOUBLE_EQ(repeat.transfer.hidden_model_s,
                     threaded.transfer.hidden_model_s);

    // Engine pricing: fault-free overlap can only help, and the
    // analytical baseline is untouched.
    EXPECT_DOUBLE_EQ(threaded.modelSeconds(), plain.modelSeconds());
    EXPECT_LT(threaded.engineSeconds(), threaded.modelSeconds());
    const double frac = threaded.transfer.overlapFrac();
    EXPECT_GT(frac, 0.0);
    EXPECT_LE(frac, 1.0);
}

TEST(TransferExecutor, ResidentLutSkipsRestagingOnRepeatedRuns)
{
    const PimPlatformConfig upmem = upmemPlatform();
    ASSERT_FALSE(upmem.lut_resident);
    LutLayer layer = makeLayerNoBias(16, 24, 2, 8, 72);
    Rng rng(73);
    Tensor input(32, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);
    const LutMapping m = mappingFor(32, 24, 4, 2);

    transfer::TransferScheduler scheduler({});
    transfer::ResidentLutManager resident(
        transfer::residentLutCapacityBytes(upmem));
    LutTransferContext ctx;
    ctx.scheduler = &scheduler;
    ctx.resident = &resident;
    ctx.resident_key = 42;

    const DistributedLutResult cold =
        runDistributedLut(upmem, layer, idx, m, false, nullptr, {}, &ctx);
    EXPECT_EQ(cold.transfer.resident_misses, 1u);
    EXPECT_EQ(cold.transfer.resident_hits, 0u);
    EXPECT_DOUBLE_EQ(cold.transfer.saved_stage_s, 0.0);

    const DistributedLutResult warm =
        runDistributedLut(upmem, layer, idx, m, false, nullptr, {}, &ctx);
    EXPECT_EQ(warm.transfer.resident_hits, 1u);
    EXPECT_EQ(warm.transfer.resident_misses, 0u);
    EXPECT_DOUBLE_EQ(warm.transfer.saved_stage_s, cold.cost.t_sub_lut);
    EXPECT_LT(warm.engineSeconds(), cold.engineSeconds())
        << "a residency hit must be cheaper than the cold run";
    EXPECT_LT(warm.transfer.staged_bytes, cold.transfer.staged_bytes)
        << "the LUT scatter burst must be skipped on a hit";

    // Output is unaffected by residency either way.
    const DistributedLutResult plain =
        runDistributedLut(upmem, layer, idx, m, false);
    for (std::size_t row = 0; row < plain.output.rows(); ++row)
        for (std::size_t col = 0; col < plain.output.cols(); ++col)
            ASSERT_EQ(warm.output(row, col), plain.output(row, col));
}

TEST(TransferExecutor, FaultedRunWithEngineGetsResidencyOnly)
{
    const PimPlatformConfig upmem = upmemPlatform();
    LutLayer layer = makeLayerNoBias(16, 24, 2, 8, 74);
    Rng rng(75);
    Tensor input(32, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);
    const LutMapping m = mappingFor(32, 24, 4, 2);
    const DistributedLutResult clean =
        runDistributedLut(upmem, layer, idx, m, true);

    // Two injectors on one seed, so the run with a context and the run
    // without one draw the same faults epoch by epoch.
    FaultConfig fc;
    fc.seed = 76;
    fc.pe_transient_rate = 0.2;
    fc.transfer_corrupt_rate = 0.15;
    fc.transfer_stall_rate = 0.15;
    FaultInjector with_ctx(fc);
    FaultInjector without_ctx(fc);
    with_ctx.forceFailPe(3);
    without_ctx.forceFailPe(3);

    transfer::TransferScheduler scheduler({});
    transfer::ResidentLutManager resident(
        transfer::residentLutCapacityBytes(upmem));
    LutTransferContext ctx;
    ctx.scheduler = &scheduler;
    ctx.resident = &resident;
    ctx.resident_key = 7;

    for (std::size_t call = 0; call < 2; ++call) {
        SCOPED_TRACE(call == 0 ? "cold" : "warm");
        const DistributedLutResult engine = runDistributedLut(
            upmem, layer, idx, m, true, &with_ctx, {}, &ctx);
        const DistributedLutResult bare = runDistributedLut(
            upmem, layer, idx, m, true, &without_ctx);

        EXPECT_EQ(maxAbsDiff(engine.output, clean.output), 0.0f);

        const FaultReport &a = engine.fault;
        const FaultReport &b = bare.fault;
        EXPECT_EQ(a.hard_failed_pes, 1u);
        EXPECT_GT(a.retries + a.stalls, 0u);
        EXPECT_EQ(a.hard_failed_pes, b.hard_failed_pes);
        EXPECT_EQ(a.transient_crashes, b.transient_crashes);
        EXPECT_EQ(a.checksum_mismatches, b.checksum_mismatches);
        EXPECT_EQ(a.lut_bitflips, b.lut_bitflips);
        EXPECT_EQ(a.stalls, b.stalls);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.tiles_remapped, b.tiles_remapped);
        EXPECT_EQ(a.degraded_waves, b.degraded_waves);
        EXPECT_EQ(a.host_fallback, b.host_fallback);
        EXPECT_EQ(a.added_latency_s, b.added_latency_s);

        // Residency only: the cold call pays the LUT scatter, the warm
        // one hits, and the index broadcast is never staged in waves.
        EXPECT_EQ(engine.transfer.resident_misses, call == 0 ? 1u : 0u);
        EXPECT_EQ(engine.transfer.resident_hits, call == 0 ? 0u : 1u);
        EXPECT_EQ(engine.transfer.bursts, call == 0 ? 1u : 0u);
        EXPECT_EQ(engine.transfer.hidden_model_s, 0.0);
    }
}

// ---------------------------------------------------------------------
// Transaction backend: burst command streams.
// ---------------------------------------------------------------------

TEST(TransferTxn, BurstCommandStreamPricesTheCoalescingWin)
{
    const TransactionBackend backend(upmemPlatform(), xeon4210Dual(),
                                     {});
    const PimPlatformConfig &upmem = backend.platform();

    const double kBytes = 256.0 * 1024;
    const TxnNodeReport small = backend.simulateTransferBurst(
        TransferDirection::HostToPim, true, kBytes);
    const TxnNodeReport big = backend.simulateTransferBurst(
        TransferDirection::HostToPim, true, 2.0 * kBytes);

    EXPECT_GT(small.commands_generated, 1u);
    EXPECT_EQ(small.commands_completed, small.commands_generated);
    EXPECT_GE(small.seconds, upmem.link_setup_latency_s);
    EXPECT_GT(big.seconds, small.seconds);
    // One merged burst beats two flat halves: one setup saved plus the
    // higher curve point.
    EXPECT_LT(big.seconds, 2.0 * small.seconds);

    // Direction/staging select the command kind and curve.
    EXPECT_GT(small.linkKindSeconds(TxnCommandKind::Scatter), 0.0);
    const TxnNodeReport bcast = backend.simulateTransferBurst(
        TransferDirection::HostToPim, false, kBytes);
    EXPECT_GT(bcast.linkKindSeconds(TxnCommandKind::Broadcast), 0.0);
    EXPECT_DOUBLE_EQ(bcast.linkKindSeconds(TxnCommandKind::Scatter),
                     0.0);
    const TxnNodeReport gather = backend.simulateTransferBurst(
        TransferDirection::PimToHost, false, kBytes);
    EXPECT_GT(gather.linkKindSeconds(TxnCommandKind::Gather), 0.0);

    // Empty bursts still pay the setup command, nothing else.
    const TxnNodeReport empty = backend.simulateTransferBurst(
        TransferDirection::HostToPim, true, 0.0);
    EXPECT_EQ(empty.commands_generated, 1u);
    EXPECT_GE(empty.seconds, upmem.link_setup_latency_s);
}

} // namespace
} // namespace pimdl
