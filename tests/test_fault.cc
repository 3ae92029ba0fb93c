/**
 * @file
 * Fault injection + graceful degradation tests: deterministic fault
 * sequences, the degraded remap plan, and bit-exactness of the
 * resilient execution ladder (retry / remap / host fallback).
 */

#include <cstring>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "lutnn/converter.h"
#include "obs/metrics.h"
#include "plan/schedule.h"
#include "runtime/lut_executor.h"

namespace pimdl {
namespace {

LutLayer
makeLayer(std::size_t h, std::size_t f, std::size_t v, std::size_t ct,
          std::uint64_t seed)
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

LutMapping
mappingFor(std::size_t n, std::size_t f, std::size_t groups,
           std::size_t lanes, std::size_t ct)
{
    LutMapping m;
    m.ns_tile = n / groups;
    m.fs_tile = f / lanes;
    m.nm_tile = std::min<std::size_t>(m.ns_tile, 8);
    while (m.ns_tile % m.nm_tile != 0)
        --m.nm_tile;
    m.fm_tile = std::min<std::size_t>(m.fs_tile, 8);
    while (m.fs_tile % m.fm_tile != 0)
        --m.fm_tile;
    m.cbm_tile = ct;
    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 1;
    return m;
}

/** One shared workload: 6x4 = 24 PEs, quantized INT8 LUT. */
struct Workload
{
    LutLayer layer;
    IndexMatrix idx;
    LutMapping mapping;
    std::size_t pes;

    Workload() : layer(makeLayer(16, 24, 2, 8, 90)), idx(0, 0)
    {
        Rng rng(91);
        Tensor input(48, 16);
        input.fillGaussian(rng);
        idx = layer.closestCentroidSearch(input);
        mapping = mappingFor(48, 24, 6, 4, 8);
        pes = 24;
    }
};

// ------------------------------------------------------------------
// Injector determinism
// ------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameSequence)
{
    FaultConfig cfg;
    cfg.pe_hard_fail_rate = 0.1;
    cfg.pe_transient_rate = 0.2;
    cfg.lut_bitflip_rate = 0.15;
    cfg.transfer_corrupt_rate = 0.15;
    cfg.transfer_stall_rate = 0.25;
    const FaultInjector a(cfg);
    const FaultInjector b(cfg);
    for (std::size_t pe = 0; pe < 64; ++pe)
        EXPECT_EQ(a.peHardFailed(pe), b.peHardFailed(pe)) << pe;
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
        for (std::size_t pe = 0; pe < 16; ++pe) {
            for (std::size_t attempt = 0; attempt < 4; ++attempt) {
                EXPECT_EQ(a.transientCrash(epoch, pe, attempt),
                          b.transientCrash(epoch, pe, attempt));
                EXPECT_EQ(a.lutBitFlip(epoch, pe, attempt),
                          b.lutBitFlip(epoch, pe, attempt));
                EXPECT_EQ(a.transferCorrupt(epoch, pe, attempt),
                          b.transferCorrupt(epoch, pe, attempt));
                EXPECT_EQ(a.transferStall(epoch, pe, attempt),
                          b.transferStall(epoch, pe, attempt));
            }
        }
    }
}

TEST(FaultInjector, DifferentSeedDifferentSequence)
{
    FaultConfig cfg;
    cfg.pe_transient_rate = 0.5;
    FaultConfig other = cfg;
    other.seed ^= 0xdeadbeefULL;
    const FaultInjector a(cfg);
    const FaultInjector b(other);
    std::size_t differing = 0;
    for (std::size_t pe = 0; pe < 256; ++pe) {
        if (a.transientCrash(0, pe, 0) != b.transientCrash(0, pe, 0))
            ++differing;
    }
    EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, ZeroRatesNeverFire)
{
    const FaultInjector inj{FaultConfig{}};
    for (std::size_t pe = 0; pe < 128; ++pe) {
        EXPECT_FALSE(inj.peHardFailed(pe));
        EXPECT_FALSE(inj.transientCrash(0, pe, 0));
        EXPECT_FALSE(inj.lutBitFlip(1, pe, 2));
        EXPECT_FALSE(inj.transferCorrupt(2, pe, 1));
        EXPECT_FALSE(inj.transferStall(3, pe, 0));
    }
}

TEST(FaultInjector, UnitRatesAlwaysFire)
{
    FaultConfig cfg;
    cfg.pe_hard_fail_rate = 1.0;
    cfg.pe_transient_rate = 1.0;
    const FaultInjector inj(cfg);
    for (std::size_t pe = 0; pe < 32; ++pe) {
        EXPECT_TRUE(inj.peHardFailed(pe));
        EXPECT_TRUE(inj.transientCrash(0, pe, 0));
    }
}

TEST(FaultInjector, CoupledDrawsMonotoneInRate)
{
    // The same (epoch, pe, attempt) key fires at every rate above its
    // uniform draw: raising the rate can only add events.
    FaultConfig lo;
    lo.pe_transient_rate = 0.1;
    FaultConfig hi = lo;
    hi.pe_transient_rate = 0.4;
    const FaultInjector a(lo);
    const FaultInjector b(hi);
    for (std::size_t pe = 0; pe < 256; ++pe) {
        if (a.transientCrash(0, pe, 0)) {
            EXPECT_TRUE(b.transientCrash(0, pe, 0)) << pe;
        }
    }
}

TEST(FaultInjector, ForceFailAndEpochs)
{
    const FaultConfig cfg;
    FaultInjector inj(cfg);
    EXPECT_FALSE(inj.peHardFailed(5));
    inj.forceFailPe(5);
    EXPECT_TRUE(inj.peHardFailed(5));
    const std::uint64_t e0 = inj.nextEpoch();
    const std::uint64_t e1 = inj.nextEpoch();
    EXPECT_NE(e0, e1);
}

TEST(FaultInjector, ValidationRejectsBadParameters)
{
    FaultConfig cfg;
    cfg.pe_transient_rate = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.pe_transient_rate = -0.1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.pe_transient_rate = 0.5;
    EXPECT_NO_THROW(cfg.validate());

    RetryPolicy retry;
    retry.backoff_base_s = -1.0;
    EXPECT_THROW(retry.validate(), std::runtime_error);
    retry = RetryPolicy{};
    retry.backoff_cap_s = retry.backoff_base_s / 2.0;
    EXPECT_THROW(retry.validate(), std::runtime_error);
    EXPECT_NO_THROW(RetryPolicy{}.validate());
}

TEST(FaultInjector, ChecksumDetectsSingleBitFlip)
{
    float data[16] = {};
    for (int i = 0; i < 16; ++i)
        data[i] = 0.5f * static_cast<float>(i);
    const std::uint64_t before = faultChecksum(data, sizeof(data));
    std::uint32_t word;
    std::memcpy(&word, &data[7], sizeof(word));
    word ^= 1u << 13;
    std::memcpy(&data[7], &word, sizeof(word));
    EXPECT_NE(faultChecksum(data, sizeof(data)), before);
}

TEST(FaultInjector, BackoffIsCappedExponential)
{
    RetryPolicy retry;
    retry.backoff_base_s = 1e-4;
    retry.backoff_cap_s = 4e-4;
    EXPECT_DOUBLE_EQ(retry.backoffFor(0), 1e-4);
    EXPECT_DOUBLE_EQ(retry.backoffFor(1), 2e-4);
    EXPECT_DOUBLE_EQ(retry.backoffFor(2), 4e-4);
    EXPECT_DOUBLE_EQ(retry.backoffFor(10), 4e-4);
}

// ------------------------------------------------------------------
// Degraded remap plan
// ------------------------------------------------------------------

TEST(DegradedRemap, IdentityWhenAllHealthy)
{
    const Workload w;
    const LutWorkloadShape shape = lutShapeFor(w.layer, w.idx.rows);
    const std::vector<bool> failed(w.pes, false);
    const DegradedLutRemap remap =
        planDegradedLutRemap(shape, w.mapping, failed);
    ASSERT_TRUE(remap.legal);
    EXPECT_EQ(remap.total_tiles, w.pes);
    EXPECT_EQ(remap.healthy_pes, w.pes);
    EXPECT_EQ(remap.waves, 1u);
    for (std::size_t tile = 0; tile < remap.total_tiles; ++tile)
        EXPECT_EQ(remap.tile_owner[tile], tile);
}

TEST(DegradedRemap, RemapsOntoSurvivorsBalanced)
{
    const Workload w;
    const LutWorkloadShape shape = lutShapeFor(w.layer, w.idx.rows);
    std::vector<bool> failed(w.pes, false);
    failed[0] = failed[7] = failed[23] = true;
    const DegradedLutRemap remap =
        planDegradedLutRemap(shape, w.mapping, failed);
    ASSERT_TRUE(remap.legal);
    EXPECT_EQ(remap.healthy_pes, w.pes - 3);
    EXPECT_EQ(remap.waves, 2u); // 24 tiles over 21 survivors
    std::vector<std::size_t> load(w.pes, 0);
    for (std::size_t tile = 0; tile < remap.total_tiles; ++tile) {
        const std::size_t owner = remap.tile_owner[tile];
        EXPECT_FALSE(failed[owner]) << "tile " << tile;
        ++load[owner];
    }
    for (std::size_t pe = 0; pe < w.pes; ++pe)
        EXPECT_LE(load[pe], remap.waves);
}

TEST(DegradedRemap, IllegalWhenNoSurvivors)
{
    const Workload w;
    const LutWorkloadShape shape = lutShapeFor(w.layer, w.idx.rows);
    const std::vector<bool> failed(w.pes, true);
    const DegradedLutRemap remap =
        planDegradedLutRemap(shape, w.mapping, failed);
    EXPECT_FALSE(remap.legal);
    EXPECT_EQ(remap.healthy_pes, 0u);
}

TEST(DegradedRemap, RejectsShortFailedVector)
{
    const Workload w;
    const LutWorkloadShape shape = lutShapeFor(w.layer, w.idx.rows);
    const std::vector<bool> failed(w.pes - 1, false);
    EXPECT_THROW(planDegradedLutRemap(shape, w.mapping, failed),
                 std::runtime_error);
}

// ------------------------------------------------------------------
// Resilient execution ladder
// ------------------------------------------------------------------

TEST(FaultExecutor, ZeroRatesBitIdenticalToFaultFree)
{
    const Workload w;
    for (bool quantized : {false, true}) {
        const DistributedLutResult clean = runDistributedLut(
            upmemPlatform(), w.layer, w.idx, w.mapping, quantized);
        const FaultInjector inj{FaultConfig{}};
        const DistributedLutResult faulty =
            runDistributedLut(upmemPlatform(), w.layer, w.idx, w.mapping,
                              quantized, &inj);
        EXPECT_EQ(maxAbsDiff(clean.output, faulty.output), 0.0f);
        EXPECT_TRUE(faulty.fault.faultFree());
        EXPECT_DOUBLE_EQ(faulty.fault.added_latency_s, 0.0);
        EXPECT_DOUBLE_EQ(clean.modelSeconds(), faulty.modelSeconds());
    }
}

TEST(FaultExecutor, TransientAndCorruptionRetriedBitExact)
{
    const Workload w;
    const DistributedLutResult clean = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true);
    FaultConfig cfg;
    cfg.pe_transient_rate = 0.15;
    cfg.lut_bitflip_rate = 0.1;
    cfg.transfer_corrupt_rate = 0.1;
    cfg.transfer_stall_rate = 0.1;
    const FaultInjector inj(cfg);
    const DistributedLutResult faulty = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true, &inj);
    EXPECT_EQ(maxAbsDiff(clean.output, faulty.output), 0.0f);
    EXPECT_FALSE(faulty.fault.faultFree());
    EXPECT_GT(faulty.fault.retries, 0u);
    EXPECT_GT(faulty.fault.added_latency_s, 0.0);
    EXPECT_GT(faulty.modelSeconds(), clean.modelSeconds());
}

TEST(FaultExecutor, DegradedRemapAfterKillingPesBitExact)
{
    const Workload w;
    const DistributedLutResult clean = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true);
    FaultInjector inj{FaultConfig{}};
    inj.forceFailPe(1);
    inj.forceFailPe(9);
    inj.forceFailPe(17);
    const DistributedLutResult faulty = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true, &inj);
    EXPECT_EQ(maxAbsDiff(clean.output, faulty.output), 0.0f);
    EXPECT_EQ(faulty.fault.hard_failed_pes, 3u);
    EXPECT_GT(faulty.fault.tiles_remapped, 0u);
    EXPECT_EQ(faulty.fault.degraded_waves, 2u);
    EXPECT_FALSE(faulty.fault.host_fallback);
    EXPECT_GT(faulty.fault.added_latency_s, 0.0);
}

TEST(FaultExecutor, FaultSequenceDeterministicAcrossRuns)
{
    const Workload w;
    FaultConfig cfg;
    cfg.pe_transient_rate = 0.2;
    cfg.transfer_corrupt_rate = 0.1;
    // Fresh injectors so both runs start from epoch 0.
    const FaultInjector a(cfg);
    const FaultInjector b(cfg);
    const DistributedLutResult ra = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true, &a);
    const DistributedLutResult rb = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true, &b);
    EXPECT_EQ(ra.fault.transient_crashes, rb.fault.transient_crashes);
    EXPECT_EQ(ra.fault.checksum_mismatches, rb.fault.checksum_mismatches);
    EXPECT_EQ(ra.fault.retries, rb.fault.retries);
    EXPECT_DOUBLE_EQ(ra.fault.added_latency_s, rb.fault.added_latency_s);
    EXPECT_EQ(maxAbsDiff(ra.output, rb.output), 0.0f);
}

TEST(FaultExecutor, HostFallbackWhenEveryPeDead)
{
    const Workload w;
    const DistributedLutResult clean = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true);
    FaultInjector inj{FaultConfig{}};
    for (std::size_t pe = 0; pe < w.pes; ++pe)
        inj.forceFailPe(pe);
    const DistributedLutResult faulty = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true, &inj);
    EXPECT_TRUE(faulty.fault.host_fallback);
    EXPECT_EQ(faulty.fault.hard_failed_pes, w.pes);
    EXPECT_EQ(maxAbsDiff(clean.output, faulty.output), 0.0f);
}

TEST(FaultExecutor, HostFallbackAppliesBiasOnce)
{
    Rng rng(92);
    Tensor w(16, 24);
    w.fillGaussian(rng);
    Tensor calib(128, 16);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = 2;
    options.centroids = 8;
    options.quantize_int8 = true;
    std::vector<float> bias(24);
    for (std::size_t i = 0; i < bias.size(); ++i)
        bias[i] = 0.25f * static_cast<float>(i) - 2.0f;
    const LutLayer biased = convertLinearLayer(w, bias, calib, options);
    Tensor input(48, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = biased.closestCentroidSearch(input);
    const LutMapping mapping = mappingFor(48, 24, 6, 4, 8);

    const DistributedLutResult clean =
        runDistributedLut(upmemPlatform(), biased, idx, mapping, true);
    FaultInjector inj{FaultConfig{}};
    for (std::size_t pe = 0; pe < 24; ++pe)
        inj.forceFailPe(pe);
    const DistributedLutResult fallback = runDistributedLut(
        upmemPlatform(), biased, idx, mapping, true, &inj);
    EXPECT_TRUE(fallback.fault.host_fallback);
    // The host serves every tile through the same bias pass: a missed or
    // doubled bias would shift every element.
    EXPECT_EQ(maxAbsDiff(clean.output, fallback.output), 0.0f);
}

TEST(FaultExecutor, LutWorkCountedOncePerRun)
{
    // Every run reduces n x cb x f LUT entries once, whichever path
    // served its tiles: all lanes count, retries and host fallback add
    // nothing.
    const Workload w;
    obs::Counter &elements =
        obs::MetricsRegistry::instance().counter("kernels.lut.elements");
    const std::uint64_t want = w.idx.rows * w.idx.cols *
                               w.layer.shape().output_dim;

    FaultConfig cfg;
    cfg.pe_transient_rate = 0.2;
    cfg.transfer_corrupt_rate = 0.2;
    const FaultInjector faulted(cfg);
    FaultInjector dead{FaultConfig{}};
    for (std::size_t pe = 0; pe < w.pes; ++pe)
        dead.forceFailPe(pe);
    const FaultInjector *runs[] = {nullptr, &faulted, &dead};
    for (const FaultInjector *faults : runs) {
        const std::uint64_t before = elements.value();
        const DistributedLutResult r = runDistributedLut(
            upmemPlatform(), w.layer, w.idx, w.mapping, true, faults);
        EXPECT_EQ(elements.value() - before, want);
        EXPECT_EQ(r.fault.retries > 0, faults == &faulted);
        EXPECT_EQ(r.fault.host_fallback, faults == &dead);
    }
}

TEST(FaultExecutor, StallsAddLatencyWithoutRetries)
{
    const Workload w;
    FaultConfig cfg;
    cfg.transfer_stall_rate = 1.0;
    const FaultInjector inj(cfg);
    const DistributedLutResult r = runDistributedLut(
        upmemPlatform(), w.layer, w.idx, w.mapping, true, &inj);
    // Every tile stalls once, but the payload still lands on attempt 0.
    EXPECT_EQ(r.fault.stalls, w.pes);
    EXPECT_EQ(r.fault.retries, 0u);
    EXPECT_GE(r.fault.added_latency_s, cfg.stall_penalty_s);
}

} // namespace
} // namespace pimdl
