/**
 * @file
 * Double-buffered transfer staging: a TransferScheduler owns one
 * background transfer thread (the simulated DMA engine of the host
 * link) draining a queue of staging jobs; each StagingChannel owns two
 * staging buffers so the fill of burst k+1 runs on the transfer thread
 * while the consumer computes on burst k — the "UPMEM Unleashed"
 * overlap mechanism as executable code, not a cost-model term.
 *
 * Protocol per channel slot: Free -> Queued (stage() reserved it) ->
 * Filling (transfer thread runs the fill) -> Ready (wait() may return
 * it) -> Held (consumer reads it) -> Free (release()). stage() blocks
 * while both slots are busy — that back-pressure is the double buffer.
 * All state is guarded by one annotated Mutex per channel plus the job
 * queue's own lock; no path ever holds both, so the runtime lock-order
 * detector sees no edge between them.
 *
 * Fault injection moves to per-burst granularity here (streams 301+):
 * each staged burst draws corruption and stall outcomes keyed by its
 * global sequence number and attempt. A corrupted fill is detected by
 * checksum and re-staged under the default RetryPolicy (fault.h);
 * penalties accumulate as modeled seconds on the burst, never as wall
 * sleeps, so accounting stays ManualClock-deterministic.
 */

#ifndef PIMDL_TRANSFER_SCHEDULER_H
#define PIMDL_TRANSFER_SCHEDULER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/thread_annotations.h"
#include "fault/fault.h"

namespace pimdl {
namespace transfer {

/** Per-burst fault draw streams (transfer engine range: 301+; fault.h
 * owns 1-6 and 101, chaos.h owns 201+). */
inline constexpr std::uint64_t kTransferBurstCorruptStream = 301;
inline constexpr std::uint64_t kTransferBurstStallStream = 302;
inline constexpr std::uint64_t kTransferBurstTargetStream = 303;

/** One staging request: how many bytes, how to fill them, and what
 * the burst costs in modeled link seconds. */
struct StageRequest
{
    std::size_t bytes = 0;
    /** Runs on the transfer thread (or inline in synchronous mode);
     * must completely overwrite dst[0, bytes). */
    std::function<void(std::uint8_t *dst, std::size_t bytes)> fill;
    /** Modeled link seconds of this burst (engine pricing). */
    double modeled_seconds = 0.0;
};

/** Outcome accounting of one staged burst. */
struct StagedBurstReport
{
    std::size_t corrupt_retries = 0;
    std::size_t stalls = 0;
    /** Modeled stall/re-stage seconds added to the burst. */
    double added_seconds = 0.0;
};

/** Aggregate accounting of a scheduler's lifetime. */
struct TransferSchedulerStats
{
    std::uint64_t bursts_staged = 0;
    double staged_bytes = 0.0;
    std::uint64_t stalls = 0;
    std::uint64_t corrupt_retries = 0;
    /** Wall seconds the transfer thread spent filling buffers. */
    double fill_wall_s = 0.0;
    /** Wall seconds consumers spent blocked in wait(). */
    double wait_wall_s = 0.0;
};

class StagingChannel;

/** Pending staging jobs before stage() blocks. */
inline constexpr std::size_t kTransferQueueCapacity = 64;

/**
 * Owns the transfer thread and the staging job queue. Channels opened
 * from a scheduler must not outlive it. In synchronous mode no thread
 * is started and fills run inline inside stage() — the unbuffered
 * baseline the bit-exactness tests compare against, with identical
 * data flow and fault draws.
 */
class TransferScheduler
{
  public:
    struct Options
    {
        /** Injectable time source for wall accounting. */
        Clock *clock = nullptr;
        /** Per-burst fault draws (nullptr = fault-free). */
        const FaultInjector *faults = nullptr;
        /** Run fills inline; no transfer thread, no overlap. */
        bool synchronous = false;
    };

    explicit TransferScheduler(Options options);
    ~TransferScheduler();

    TransferScheduler(const TransferScheduler &) = delete;
    TransferScheduler &operator=(const TransferScheduler &) = delete;

    /**
     * Opens a double-buffered staging channel. Thread-safe; channels
     * are independent and may be used from different threads, all
     * sharing the one transfer thread. @p name labels the channel's
     * lock in lock-order reports (static string literal).
     */
    std::unique_ptr<StagingChannel> openChannel(const char *name);

    bool synchronous() const { return options_.synchronous; }

    TransferSchedulerStats stats() const PIMDL_EXCLUDES(stats_mu_);

  private:
    friend class StagingChannel;

    struct Job
    {
        StagingChannel *channel = nullptr;
        std::size_t slot = 0;
    };

    Options options_;
    Clock *clock_ = nullptr;
    BoundedMpmcQueue<Job> jobs_;
    std::thread worker_;
    /** Global burst sequence: the per-burst fault draw key. */
    std::atomic<std::uint64_t> burst_seq_{0};

    mutable Mutex stats_mu_{"transfer.scheduler.stats"};
    TransferSchedulerStats stats_ PIMDL_GUARDED_BY(stats_mu_);

    void workerLoop();
    /** Fills one slot, applying per-burst fault draws and retries. */
    void runFill(StagingChannel *channel, std::size_t slot);
    void recordFill(double bytes, double wall_s,
                    const StagedBurstReport &report)
        PIMDL_EXCLUDES(stats_mu_);
    void recordWait(double wall_s) PIMDL_EXCLUDES(stats_mu_);
};

/**
 * Two staging buffers over one producer/consumer pair. Not itself
 * thread-safe across consumers: one logical consumer drives stage()/
 * wait()/release() (possibly from different threads over time, as the
 * serving runtime's batcher/worker handoff does); the transfer thread
 * is the only other party, synchronized by the channel mutex.
 */
class StagingChannel
{
  public:
    ~StagingChannel();

    StagingChannel(const StagingChannel &) = delete;
    StagingChannel &operator=(const StagingChannel &) = delete;

    /**
     * Reserves the next staging slot and enqueues the fill; returns
     * the slot ticket to pass to wait()/release(). Blocks while both
     * slots are occupied (the double-buffer back-pressure). In
     * synchronous mode the fill runs inline before returning.
     */
    std::size_t stage(StageRequest request) PIMDL_EXCLUDES(mu_);

    /** Blocks until the ticket's fill completed; the returned buffer
     * stays valid until release(ticket). */
    const std::vector<std::uint8_t> &wait(std::size_t ticket)
        PIMDL_EXCLUDES(mu_);

    /** Per-burst fault accounting of a staged ticket (valid between
     * wait() and release()). */
    StagedBurstReport report(std::size_t ticket) const
        PIMDL_EXCLUDES(mu_);

    /** Returns the ticket's buffer to the free pool. */
    void release(std::size_t ticket) PIMDL_EXCLUDES(mu_);

  private:
    friend class TransferScheduler;

    enum class SlotState
    {
        Free,
        Queued,
        Filling,
        Ready,
        Held,
    };

    struct Slot
    {
        SlotState state = SlotState::Free;
        std::vector<std::uint8_t> data;
        StageRequest request;
        StagedBurstReport report;
        std::uint64_t seq = 0;
    };

    explicit StagingChannel(TransferScheduler *scheduler,
                            const char *name);

    TransferScheduler *scheduler_;
    mutable Mutex mu_;
    CondVar cv_{"transfer.channel"};
    Slot slots_[2] PIMDL_GUARDED_BY(mu_);
    std::size_t next_slot_ PIMDL_GUARDED_BY(mu_) = 0;
};

} // namespace transfer
} // namespace pimdl

#endif // PIMDL_TRANSFER_SCHEDULER_H
