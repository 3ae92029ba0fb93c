#include "parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "thread_annotations.h"

namespace pimdl {

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** First exception thrown by any shard, kept under its own lock so
 * the thread-safety analysis can check the cross-thread handoff. */
struct ErrorSlot
{
    Mutex mu{"parallel.error_slot"};
    std::exception_ptr first PIMDL_GUARDED_BY(mu);

    void
    capture() PIMDL_EXCLUDES(mu)
    {
        MutexLock guard(mu);
        if (!first)
            first = std::current_exception();
    }

    std::exception_ptr
    take() PIMDL_EXCLUDES(mu)
    {
        MutexLock guard(mu);
        return first;
    }
};

/**
 * Most shards one call is cut into, per worker thread. Shards are
 * claimed one at a time, so a thread that finishes early (or a caller
 * that joins late) takes over the rest instead of the call waiting on
 * one straggling equal share.
 */
constexpr std::size_t kShardsPerWorker = 4;

/**
 * One parallelForBlocked call: `shards` contiguous ranges of `chunk`
 * indices (the last one shorter). It lives on the caller's stack; a
 * pool worker touches it only between claiming a shard and retiring
 * that shard.
 */
struct Job
{
    const std::function<void(std::size_t, std::size_t)> *body = nullptr;
    std::size_t count = 0;
    std::size_t chunk = 0;
    std::size_t shards = 0;
    /** Next unclaimed shard; read and written under the pool's mutex. */
    std::size_t next = 0;
    /** Shards not yet finished; the caller returns once it reads 0. */
    std::atomic<std::size_t> unfinished{0};
    ErrorSlot error;
    std::vector<double> busy_s;
};

/**
 * The persistent worker pool behind every multi-shard call. Workers
 * start once, on the first such call, so they inherit that caller's
 * CPU affinity, and they are never joined: the pool lives for the
 * whole process, so no worker can outlive state it reads at exit.
 *
 * The caller claims its own job's shards too, in order, until none is
 * left; it then waits only for shards already running on workers. A
 * job therefore finishes even when every worker is busy, which keeps
 * nested calls (a body calling parallelFor) and concurrent callers
 * (live serving workers) deadlock-free. The pool's mutex guards only
 * the queue and the claim counters; no lock is held while a body
 * runs, and the caller's wait is an atomic wait, not a CondVar, so a
 * caller holding its own lock is never a wait-while-holding.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        // Never destroyed (see the class comment).
        static Pool *const pool = new Pool();
        return *pool;
    }

    void
    run(Job &job) PIMDL_EXCLUDES(mu_)
    {
        std::call_once(started_, [this] {
            for (std::size_t w = 1; w < parallelWorkerCount(); ++w)
                std::thread([this] { workerLoop(); }).detach();
        });
        {
            MutexLock lock(mu_);
            queue_.push_back(&job);
        }
        work_.notifyAll();
        for (std::size_t shard = 0; claimOwn(job, &shard);)
            runShard(job, shard);
        for (;;) {
            const std::uint32_t seen =
                retired_.load(std::memory_order_acquire);
            if (job.unfinished.load(std::memory_order_acquire) == 0)
                return;
            retired_.wait(seen, std::memory_order_acquire);
        }
    }

  private:
    Pool() = default;

    /** Claims the caller's next shard; false once all are claimed. */
    bool
    claimOwn(Job &job, std::size_t *shard) PIMDL_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        if (job.next == job.shards)
            return false;
        *shard = job.next++;
        if (job.next == job.shards)
            queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
        return true;
    }

    void
    workerLoop() PIMDL_EXCLUDES(mu_)
    {
        for (;;) {
            Job *job = nullptr;
            std::size_t shard = 0;
            {
                MutexLock lock(mu_);
                while (queue_.empty())
                    work_.wait(mu_);
                job = queue_.front();
                shard = job->next++;
                if (job->next == job->shards)
                    queue_.pop_front();
            }
            runShard(*job, shard);
        }
    }

    /** Runs one shard; the last shard of a job to finish wakes the
     * waiting caller. @p job is not touched after its count drops. */
    void
    runShard(Job &job, std::size_t shard)
    {
        const std::size_t begin = shard * job.chunk;
        const std::size_t end = std::min(job.count, begin + job.chunk);
        const auto start = std::chrono::steady_clock::now();
        try {
            (*job.body)(begin, end);
        } catch (...) {
            job.error.capture();
        }
        job.busy_s[shard] = secondsSince(start);
        if (job.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            retired_.fetch_add(1, std::memory_order_release);
            retired_.notify_all();
        }
    }

    Mutex mu_{"parallel.pool"};
    CondVar work_{"parallel.pool.work"};
    /** Jobs with unclaimed shards, oldest first. */
    std::deque<Job *> queue_ PIMDL_GUARDED_BY(mu_);
    std::once_flag started_;
    /** Bumped each time a job's last shard finishes. */
    std::atomic<std::uint32_t> retired_{0};
};

} // namespace

std::size_t
parallelWorkerCount()
{
    // Read once: hardware_concurrency() reads sysfs on glibc, about
    // 3-5 us a call, more than a small inline softmax or bias add.
    static const std::size_t count = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? std::size_t{1} : std::size_t{hw};
    }();
    return count;
}

void
parallelFor(std::size_t count, const std::function<void(std::size_t)> &body)
{
    parallelForBlocked(count, 1,
                       [&body](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i)
                               body(i);
                       });
}

void
parallelForBlocked(std::size_t count, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)> &body)
{
    if (count == 0)
        return;
    if (grain == 0)
        grain = 1;

    // Cached metric references: the registry never invalidates them.
    static obs::Counter &calls =
        obs::MetricsRegistry::instance().counter("parallel.calls");
    static obs::Counter &items =
        obs::MetricsRegistry::instance().counter("parallel.items");
    static obs::Gauge &worker_gauge =
        obs::MetricsRegistry::instance().gauge("parallel.workers");
    static obs::Histogram &utilization =
        obs::MetricsRegistry::instance().histogram(
            "parallel.worker_utilization");

    calls.add();
    items.add(count);

    // A shard owns at least one full grain of contiguous work.
    const std::size_t grains = (count + grain - 1) / grain;
    const std::size_t workers =
        std::min<std::size_t>(parallelWorkerCount(), grains);
    worker_gauge.set(static_cast<double>(workers));
    if (workers <= 1) {
        body(0, count);
        utilization.record(1.0);
        return;
    }

    // Up to kShardsPerWorker contiguous shards per worker, each a whole
    // number of grains; the threads claim them one at a time.
    const std::size_t max_shards =
        std::min(grains, kShardsPerWorker * parallelWorkerCount());
    const std::size_t grains_per_shard =
        (grains + max_shards - 1) / max_shards;
    Job job;
    job.body = &body;
    job.count = count;
    job.chunk = grains_per_shard * grain;
    job.shards = (count + job.chunk - 1) / job.chunk;
    job.unfinished.store(job.shards, std::memory_order_relaxed);
    job.busy_s.assign(job.shards, 0.0);
    const auto wall_start = std::chrono::steady_clock::now();
    Pool::instance().run(job);

    // Utilization = summed shard busy time over the wall time of the
    // min(shards, workers) threads that can run this call at once; 1.0
    // means every such thread was busy throughout, low values mean
    // stragglers or threads that never joined.
    const double wall = secondsSince(wall_start);
    if (wall > 0.0) {
        double busy_total = 0.0;
        for (double b : job.busy_s)
            busy_total += b;
        const std::size_t threads = std::min(job.shards, workers);
        utilization.record(std::min(
            1.0, busy_total / (wall * static_cast<double>(threads))));
    }

    if (std::exception_ptr first = job.error.take())
        std::rethrow_exception(first);
}

} // namespace pimdl
