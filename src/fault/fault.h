/**
 * @file
 * Deterministic, seed-driven fault injection for the simulated DRAM-PIM
 * substrate.
 *
 * Real commodity PIM deployments are not fault-free: the UPMEM
 * microbenchmarking literature (Gomez-Luna et al., cited as [33] in the
 * paper) documents per-DPU variability, disabled DPUs, and transfer
 * errors the SDK must mask. This module makes those events first-class
 * simulation inputs, the way DRAMsim3-style simulators treat refresh
 * and disturbance: an event taxonomy (per-PE hard failures, transient
 * PE crashes, resident-LUT bit flips, host<->PIM transfer corruption
 * and stalls), each with a configurable rate.
 *
 * Determinism contract: every draw is a pure counter-based hash of
 * (seed, event stream, execution epoch, PE id, attempt) — no shared
 * mutable RNG state — so the fault sequence for a given seed is
 * bit-reproducible regardless of how parallelFor interleaves the
 * simulated PEs across worker threads.
 */

#ifndef PIMDL_FAULT_FAULT_H
#define PIMDL_FAULT_FAULT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>

#include "common/thread_annotations.h"

namespace pimdl {

/** The injectable fault event taxonomy. */
enum class FaultEventKind
{
    /** PE permanently dead for the injector's lifetime. */
    PeHardFail,
    /** One kernel attempt on a PE produces nothing. */
    PeTransient,
    /** A resident LUT tile in MRAM/WRAM silently corrupts. */
    LutBitFlip,
    /** A host<->PIM transfer delivers corrupted bytes. */
    TransferCorrupt,
    /** A host<->PIM transfer stalls for a fixed penalty. */
    TransferStall,
};

/** Human-readable event name. */
const char *faultEventKindName(FaultEventKind kind);

/** Rates and penalties of the injectable fault events. */
struct FaultConfig
{
    /** Root of every deterministic draw. */
    std::uint64_t seed = 0x5eedfa17ULL;

    /** Per-PE probability of being permanently dead. */
    double pe_hard_fail_rate = 0.0;
    /** Per kernel-attempt probability a PE crashes transiently. */
    double pe_transient_rate = 0.0;
    /** Per kernel-attempt probability a resident LUT tile corrupts. */
    double lut_bitflip_rate = 0.0;
    /** Per kernel-attempt probability the output transfer corrupts. */
    double transfer_corrupt_rate = 0.0;
    /** Per kernel-attempt probability the transfer stalls. */
    double transfer_stall_rate = 0.0;

    /** Modeled latency added by one stall event, seconds. */
    double stall_penalty_s = 200e-6;

    /** True when any event can fire. */
    bool anyRateSet() const
    {
        return pe_hard_fail_rate > 0.0 || pe_transient_rate > 0.0 ||
               lut_bitflip_rate > 0.0 || transfer_corrupt_rate > 0.0 ||
               transfer_stall_rate > 0.0;
    }

    /** Throws std::runtime_error on rates outside [0, 1] etc. */
    void validate() const;
};

/**
 * Capped exponential backoff shared by every retry ladder in the
 * stack (PE re-execution, serving batch retries): base * 2^retry,
 * saturating at @p cap_s.
 */
double cappedBackoff(double base_s, double cap_s, std::size_t retry);

/**
 * Draw stream of the serving layer's per-batch fault outcomes: a fixed
 * fault profile injects the same batch-indexed fault sequence into
 * every run of the live serving runtime, threaded or replayed.
 */
inline constexpr std::uint64_t kServingBatchFaultStream = 101;

/** Capped exponential backoff for retried kernel attempts. */
struct RetryPolicy
{
    /** Re-executions allowed per tile before escalation. */
    std::size_t max_retries = 3;
    /** Backoff before the first retry, seconds. */
    double backoff_base_s = 50e-6;
    /** Backoff ceiling, seconds. */
    double backoff_cap_s = 2e-3;

    /** Backoff before retry number @p retry (0-based), seconds. */
    double backoffFor(std::size_t retry) const
    {
        return cappedBackoff(backoff_base_s, backoff_cap_s, retry);
    }

    /** Throws std::runtime_error on negative/NaN parameters. */
    void validate() const;
};

/**
 * Outcome accounting of one fault-aware execution. All counts are
 * deterministic for a fixed injector seed.
 */
struct FaultReport
{
    /** PEs in the mapping's pool that were permanently dead. */
    std::size_t hard_failed_pes = 0;
    std::size_t transient_crashes = 0;
    /** Transfer corruptions caught by output-tile checksums. */
    std::size_t checksum_mismatches = 0;
    /** Resident-LUT corruptions caught by the tile CRC scrub. */
    std::size_t lut_bitflips = 0;
    std::size_t stalls = 0;
    /** Kernel attempts re-executed after a detected fault. */
    std::size_t retries = 0;
    /** Tiles recomputed away from their original owner PE. */
    std::size_t tiles_remapped = 0;
    /** Serial rounds the degraded schedule needed (0 = full strength). */
    std::size_t degraded_waves = 0;
    /** True when the op abandoned the PIM and ran on the host. */
    bool host_fallback = false;
    /** Stall/retry/remap seconds added to the analytical latency. */
    double added_latency_s = 0.0;

    bool
    faultFree() const
    {
        return hard_failed_pes == 0 && transient_crashes == 0 &&
               checksum_mismatches == 0 && lut_bitflips == 0 &&
               stalls == 0 && retries == 0 && tiles_remapped == 0 &&
               !host_fallback;
    }
};

/**
 * Uniform [0, 1) draw from a stateless counter-based hash (splitmix64
 * finalizer over the keys). Exposed so other layers (the serving
 * runtime's per-batch outcomes) share the same determinism contract.
 */
double faultHashUniform(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t a, std::uint64_t b);

/** FNV-1a checksum of a byte range (the simulated output-tile CRC). */
std::uint64_t faultChecksum(const void *data, std::size_t bytes);

/**
 * Seed-driven fault oracle. All query methods are const and pure in
 * their arguments, so concurrent simulated PEs may query freely; the
 * only mutable state is the execution-epoch counter that distinguishes
 * consecutive kernel launches.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig config);

    const FaultConfig &config() const { return config_; }

    /** Permanently dead PE (rate draw or explicit kill)? */
    bool peHardFailed(std::size_t pe) const PIMDL_EXCLUDES(forced_mu_);

    /** Transient crash of @p pe on this (epoch, attempt)? */
    bool transientCrash(std::uint64_t epoch, std::size_t pe,
                        std::size_t attempt) const;

    /** Resident-LUT corruption for @p pe on this (epoch, attempt)? */
    bool lutBitFlip(std::uint64_t epoch, std::size_t pe,
                    std::size_t attempt) const;

    /** Output-transfer corruption for @p pe on this (epoch, attempt)? */
    bool transferCorrupt(std::uint64_t epoch, std::size_t pe,
                         std::size_t attempt) const;

    /** Transfer stall for @p pe on this (epoch, attempt)? */
    bool transferStall(std::uint64_t epoch, std::size_t pe,
                       std::size_t attempt) const;

    /** Deterministic corruption target in [0, slots). */
    std::size_t corruptionTarget(std::uint64_t epoch, std::size_t pe,
                                 std::size_t attempt,
                                 std::size_t slots) const;

    /** Marks a PE permanently dead (tests, operator drain). */
    void forceFailPe(std::size_t pe) PIMDL_EXCLUDES(forced_mu_);

    /** Distinguishes consecutive kernel launches (thread-safe). */
    std::uint64_t nextEpoch() const;

  private:
    FaultConfig config_;
    /** Guards forced_failed_: operator drains (forceFailPe) may race
     * concurrent PE-liveness queries from parallelFor workers. */
    mutable Mutex forced_mu_{"fault.forced_pes"};
    std::set<std::size_t> forced_failed_ PIMDL_GUARDED_BY(forced_mu_);
    mutable std::atomic<std::uint64_t> epoch_{0};
};

} // namespace pimdl

#endif // PIMDL_FAULT_FAULT_H
