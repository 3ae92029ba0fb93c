#include "scheduler.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace pimdl {
namespace transfer {

TransferScheduler::TransferScheduler(Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : &SteadyClock::instance()),
      jobs_(kTransferQueueCapacity, "transfer.jobs")
{
    if (!options_.synchronous)
        worker_ = std::thread([this] { workerLoop(); });
}

TransferScheduler::~TransferScheduler()
{
    jobs_.close();
    if (worker_.joinable())
        worker_.join();
}

std::unique_ptr<StagingChannel>
TransferScheduler::openChannel(const char *name)
{
    return std::unique_ptr<StagingChannel>(
        new StagingChannel(this, name));
}

TransferSchedulerStats
TransferScheduler::stats() const
{
    MutexLock lock(stats_mu_);
    return stats_;
}

void
TransferScheduler::workerLoop()
{
    Job job;
    while (jobs_.pop(job))
        runFill(job.channel, job.slot);
}

void
TransferScheduler::runFill(StagingChannel *channel, std::size_t slot)
{
    StageRequest request;
    std::uint64_t seq = 0;
    std::uint8_t *dst = nullptr;
    {
        MutexLock lock(channel->mu_);
        StagingChannel::Slot &s = channel->slots_[slot];
        PIMDL_REQUIRE(s.state == StagingChannel::SlotState::Queued,
                      "staging slot not queued for fill");
        s.state = StagingChannel::SlotState::Filling;
        // The request callable is moved out so the (possibly slow)
        // fill runs without the channel lock; the consumer cannot
        // touch a Filling slot, so the slot's buffer is exclusively
        // ours until the Ready transition below and the dst pointer
        // stays stable across the unlocked fill.
        request = std::move(s.request);
        s.data.resize(request.bytes);
        dst = s.data.data();
        seq = s.seq;
    }

    const double t0 = clock_->now();
    StagedBurstReport report;

    const FaultInjector *faults = options_.faults;
    const std::uint64_t seed =
        faults != nullptr ? faults->config().seed : 0;
    const FaultConfig *fc = faults != nullptr ? &faults->config() : nullptr;
    const RetryPolicy retry;

    for (std::size_t attempt = 0;; ++attempt) {
        if (request.fill && request.bytes > 0)
            request.fill(dst, request.bytes);
        if (fc == nullptr || !fc->anyRateSet())
            break;
        // Per-burst stall draw: modeled seconds only, never a wall
        // sleep, so accounting stays clock-implementation agnostic.
        if (faultHashUniform(seed, kTransferBurstStallStream, seq,
                             attempt) < fc->transfer_stall_rate) {
            ++report.stalls;
            report.added_seconds += fc->stall_penalty_s;
        }
        const bool corrupt =
            faultHashUniform(seed, kTransferBurstCorruptStream, seq,
                             attempt) < fc->transfer_corrupt_rate;
        if (!corrupt)
            break;
        if (request.bytes > 0) {
            // Flip one deterministic byte, then detect it the way the
            // runtime would: the staged checksum no longer matches a
            // clean refill's.
            const std::uint64_t clean = faultChecksum(dst, request.bytes);
            const std::size_t target = static_cast<std::size_t>(
                faultHashUniform(seed, kTransferBurstTargetStream, seq,
                                 attempt) *
                static_cast<double>(request.bytes));
            dst[target < request.bytes ? target : request.bytes - 1] ^=
                0xFF;
            PIMDL_REQUIRE(faultChecksum(dst, request.bytes) != clean,
                          "burst corruption must perturb the checksum");
        }
        ++report.corrupt_retries;
        report.added_seconds +=
            request.modeled_seconds +
            retry.backoffFor(report.corrupt_retries - 1);
        if (report.corrupt_retries > retry.max_retries) {
            // Retry budget exhausted: one final clean refill below
            // models the host-mediated recovery path (always succeeds
            // in simulation); data delivered to the consumer is never
            // corrupted, mirroring the SDK's transfer CRC contract.
            if (request.fill && request.bytes > 0)
                request.fill(dst, request.bytes);
            break;
        }
    }

    const double wall = clock_->now() - t0;
    // Account BEFORE publishing Ready: once a waiter (or the channel
    // destructor) unblocks, the scheduler's stats already include this
    // burst.
    recordFill(static_cast<double>(request.bytes), wall, report);
    {
        MutexLock lock(channel->mu_);
        StagingChannel::Slot &s = channel->slots_[slot];
        s.report = report;
        s.state = StagingChannel::SlotState::Ready;
    }
    channel->cv_.notifyAll();
}

void
TransferScheduler::recordFill(double bytes, double wall_s,
                              const StagedBurstReport &report)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_bursts =
        reg.counter("transfer.staged_bursts");
    static obs::Counter &c_bytes = reg.counter("transfer.staged_bytes");
    static obs::Counter &c_stalls = reg.counter("transfer.stalls");
    static obs::Counter &c_retries =
        reg.counter("transfer.corrupt_retries");
    static obs::Histogram &h_wall =
        reg.histogram("transfer.stage_wall_s");
    {
        MutexLock lock(stats_mu_);
        ++stats_.bursts_staged;
        stats_.staged_bytes += bytes;
        stats_.stalls += report.stalls;
        stats_.corrupt_retries += report.corrupt_retries;
        stats_.fill_wall_s += wall_s;
    }
    c_bursts.add();
    c_bytes.add(static_cast<std::uint64_t>(bytes));
    if (report.stalls > 0)
        c_stalls.add(report.stalls);
    if (report.corrupt_retries > 0)
        c_retries.add(report.corrupt_retries);
    h_wall.record(wall_s);
}

void
TransferScheduler::recordWait(double wall_s)
{
    MutexLock lock(stats_mu_);
    stats_.wait_wall_s += wall_s;
}

StagingChannel::StagingChannel(TransferScheduler *scheduler,
                               const char *name)
    : scheduler_(scheduler), mu_(name)
{
}

StagingChannel::~StagingChannel()
{
    // Wait out in-flight fills so the transfer thread never touches a
    // destroyed channel; Queued slots cannot be cancelled (the job is
    // already in the queue), so those must drain too.
    MutexLock lock(mu_);
    for (;;) {
        bool busy = false;
        for (const Slot &s : slots_)
            if (s.state == SlotState::Queued ||
                s.state == SlotState::Filling)
                busy = true;
        if (!busy)
            break;
        cv_.wait(mu_);
    }
}

std::size_t
StagingChannel::stage(StageRequest request)
{
    std::size_t ticket = 0;
    std::uint64_t seq =
        scheduler_->burst_seq_.fetch_add(1, std::memory_order_relaxed);
    {
        MutexLock lock(mu_);
        // Double-buffer back-pressure: at most two bursts in flight.
        while (slots_[next_slot_].state != SlotState::Free)
            cv_.wait(mu_);
        ticket = next_slot_;
        next_slot_ = (next_slot_ + 1) % 2;
        Slot &s = slots_[ticket];
        s.state = SlotState::Queued;
        s.request = std::move(request);
        s.report = StagedBurstReport{};
        s.seq = seq;
    }
    if (scheduler_->synchronous()) {
        // Inline fill: identical data path and fault draws, no overlap
        // — the unbuffered baseline.
        scheduler_->runFill(this, ticket);
    } else {
        // Enqueue WITHOUT holding the channel lock: the queue has its
        // own lock and the lock-order detector must never see an edge
        // between the two.
        const bool pushed = scheduler_->jobs_.push({this, ticket});
        PIMDL_REQUIRE(pushed,
                      "transfer scheduler destroyed with open channels");
    }
    return ticket;
}

const std::vector<std::uint8_t> &
StagingChannel::wait(std::size_t ticket)
{
    PIMDL_REQUIRE(ticket < 2, "invalid staging ticket");
    const double t0 = scheduler_->clock_->now();
    MutexLock lock(mu_);
    while (slots_[ticket].state != SlotState::Ready) {
        PIMDL_REQUIRE(slots_[ticket].state == SlotState::Queued ||
                          slots_[ticket].state == SlotState::Filling,
                      "wait() on a ticket that was never staged");
        cv_.wait(mu_);
    }
    slots_[ticket].state = SlotState::Held;
    scheduler_->recordWait(scheduler_->clock_->now() - t0);
    // Held buffers are stable until release(): the transfer thread
    // only writes slots it owns (Queued->Filling), never Held ones.
    return slots_[ticket].data;
}

StagedBurstReport
StagingChannel::report(std::size_t ticket) const
{
    PIMDL_REQUIRE(ticket < 2, "invalid staging ticket");
    MutexLock lock(mu_);
    PIMDL_REQUIRE(slots_[ticket].state == SlotState::Held,
                  "burst report is valid between wait() and release()");
    return slots_[ticket].report;
}

void
StagingChannel::release(std::size_t ticket)
{
    PIMDL_REQUIRE(ticket < 2, "invalid staging ticket");
    {
        MutexLock lock(mu_);
        PIMDL_REQUIRE(slots_[ticket].state == SlotState::Held,
                      "release() requires a held ticket");
        slots_[ticket].state = SlotState::Free;
    }
    cv_.notifyAll();
}

} // namespace transfer
} // namespace pimdl
