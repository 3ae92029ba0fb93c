/**
 * @file
 * Live multithreaded serving runtime with continuous batching.
 *
 * The analytical counterpart (runtime/serving.h) predicts batched
 * serving behavior from engine estimates; this module executes it:
 * request submitters feed a bounded MPMC queue (admission control — a
 * full queue rejects instead of buffering unboundedly), a batcher
 * thread forms batches under a max-batch/max-wait policy, and a worker
 * pool drives a real executor (the functional transformer) while the
 * batcher keeps forming the next batch — continuous batching. Batches
 * ride the same deterministic fault/retry ladder as the simulator
 * (shared draw stream kServingBatchFaultStream), and requests past
 * their deadline are shed at admission or dispatch.
 *
 * On top of that sits the resilience control plane (resilience.h):
 * a watchdog thread seizes batches from hung workers and respawns the
 * slot, poison batches that exhaust retries are bisected until the
 * poisonous request is isolated, a circuit breaker pins sustained
 * primary-path failures to the degraded path, and an AIMD limit
 * bounds admitted-but-unresolved requests. A deterministic chaos
 * injector (fault/chaos.h) can be attached to drive all of it in soak
 * tests.
 *
 * Every time-dependent decision (max-wait, deadlines, backoff, hang
 * timeouts, breaker cooldowns) reads an injectable Clock, so tests
 * drive a ManualClock and stay deterministic under arbitrary CI load;
 * production uses SteadyClock.
 */

#ifndef PIMDL_RUNTIME_SERVING_LIVE_H
#define PIMDL_RUNTIME_SERVING_LIVE_H

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/thread_annotations.h"
#include "fault/chaos.h"
#include "obs/metrics.h"
#include "runtime/functional_transformer.h"
#include "runtime/resilience.h"
#include "runtime/serving.h"
#include "tensor/tensor.h"

namespace pimdl {

/** Terminal outcome of one admitted request. */
enum class LiveRequestStatus
{
    /** Served within the deadline (or no deadline configured). */
    Completed,
    /** Served, but past the per-request deadline. */
    TimedOut,
    /** Dropped before execution: deadline already passed at admission
     * or by dispatch time. */
    Shed,
    /** Lost to a batch that exhausted its retries. */
    Failed,
};

/** Human-readable status name. */
const char *liveRequestStatusName(LiveRequestStatus status);

/** What a submitter's future resolves to. */
struct LiveRequestResult
{
    LiveRequestStatus status = LiveRequestStatus::Failed;
    std::uint64_t request_id = 0;
    std::uint64_t tenant = 0;
    /** Batch the request executed in (0 when shed pre-dispatch). */
    std::uint64_t batch_id = 0;
    /** Requests in that batch (0 when shed pre-dispatch). */
    std::size_t batch_size = 0;
    /** Clock timestamps, seconds since the clock's epoch. */
    double enqueue_s = 0.0;
    double done_s = 0.0;
    /** Time spent queued before the batch started executing. */
    double queue_wait_s = 0.0;
    /** Batch execution time (retries and backoff included). */
    double service_s = 0.0;
    /** End-to-end latency: done_s - enqueue_s. */
    double latency_s = 0.0;
    /** Per-request output rows (empty unless Completed/TimedOut and
     * the runtime was configured to collect outputs). */
    Tensor output;
};

/**
 * What the worker pool runs per dispatched batch. Implementations may
 * throw to signal a batch fault; the runtime catches (any type, not
 * just std::exception) and retries it on the same ladder as injected
 * faults.
 */
class BatchExecutor
{
  public:
    virtual ~BatchExecutor() = default;

    /**
     * Executes @p tokens ((batch*seq_len) x hidden) and returns the
     * output with identical shape. @p degraded is true on retry
     * attempts and while the circuit breaker holds the primary path
     * open: implementations may fall back to a slower-but-safer path
     * (mirroring the simulator's degraded service factor).
     */
    virtual Tensor execute(const Tensor &tokens, std::size_t seq_len,
                           bool degraded) = 0;
};

/**
 * BatchExecutor over a FunctionalTransformer. Degraded (retry)
 * attempts of a PimLut backend fall back to HostLut — the functional
 * analogue of re-executing on the remapped engine.
 */
class FunctionalBatchExecutor final : public BatchExecutor
{
  public:
    FunctionalBatchExecutor(const FunctionalTransformer &model,
                            LinearBackendKind backend)
        : model_(model), backend_(backend)
    {}

    Tensor execute(const Tensor &tokens, std::size_t seq_len,
                   bool degraded) override;

  private:
    const FunctionalTransformer &model_;
    LinearBackendKind backend_;
};

/** Policy knobs of the live runtime. */
struct LiveServingConfig
{
    /** Largest number of requests batched into one dispatch. */
    std::size_t max_batch = 8;
    /** Dispatch a partial batch once its oldest request waited this
     * long, seconds. */
    double max_wait_s = 2e-3;
    /** Admission bound: submits beyond this depth are rejected. */
    std::size_t queue_capacity = 256;
    /** Worker threads executing dispatched batches. */
    std::size_t workers = 1;
    /** Per-request deadline, seconds; 0 disables shedding/timeouts.
     * submit() may override per request with an explicit budget. */
    double deadline_s = 0.0;
    /** Pad dispatched batches to the next power of two (bounded by
     * max_batch), matching the simulator's shape bucketing. */
    bool pow2_buckets = true;
    /** Slice per-request outputs out of the batch output (off for
     * load tests that only measure latency). */
    bool collect_outputs = true;
    /** Per-batch fault semantics, shared with the simulator. */
    ServingFaultProfile faults;
    /** Control-plane resilience switches: watchdog, breaker, AIMD. */
    ResilienceConfig resilience;

    /** Throws std::runtime_error with a field-naming message. */
    void validate() const;
};

/** Aggregate counters and latency stats of a runtime's lifetime. */
struct LiveServingStats
{
    /** submit() calls, including rejected ones. */
    std::size_t submitted = 0;
    /** Submits refused at the admission boundary (queue full,
     * draining, or over the AIMD in-flight limit). */
    std::size_t rejected = 0;
    /** Rejections due specifically to the AIMD in-flight limit
     * (subset of rejected). */
    std::size_t overload_rejected = 0;
    /** Requests served within the deadline (or with no deadline). */
    std::size_t completed = 0;
    /** Requests served past the deadline (disjoint from completed). */
    std::size_t timed_out = 0;
    /** Requests dropped pre-execution (admission or dispatch). */
    std::size_t shed = 0;
    /** Sheds decided at admission time (subset of shed): the
     * deadline budget had already expired. */
    std::size_t shed_admission = 0;
    /** Requests lost to batches that exhausted retries. */
    std::size_t failed_requests = 0;
    std::size_t batches = 0;
    std::size_t batch_retries = 0;
    std::size_t failed_batches = 0;
    /** Batches that completed but needed at least one retry. */
    std::size_t degraded_batches = 0;
    /** Hung batches seized from their worker by the watchdog. */
    std::size_t watchdog_hangs = 0;
    /** Worker slots respawned after a seizure. */
    std::size_t watchdog_respawns = 0;
    /** Late results discarded because the watchdog had already
     * re-owned the batch. */
    std::size_t watchdog_discarded = 0;
    /** Retry-exhausted batches split into sub-batches. */
    std::size_t bisections = 0;
    /** Requests isolated as poisonous by bisection (failed alone). */
    std::size_t poison_isolated = 0;
    /** Times the circuit breaker opened. */
    std::size_t breaker_opens = 0;
    double mean_batch_size = 0.0;
    /** Total batch execution time across workers, seconds. */
    double busy_s = 0.0;
    /** Latency over served requests (queueing + service), seconds. */
    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double mean_queue_wait_s = 0.0;
    /** Current AIMD in-flight limit (the static pipeline capacity
     * when AIMD is off). */
    double inflight_limit = 0.0;
    /** completed / admitted (submitted - rejected). */
    double availability = 1.0;
};

/**
 * The live serving runtime: one batcher thread, a worker pool, an
 * optional watchdog thread, and a bounded request queue between
 * submitters and the batcher. Construct, submit() from any number of
 * threads, then drain() (or destroy) to stop: in-flight and queued
 * requests complete, new submits reject.
 */
class LiveServingRuntime
{
  public:
    /**
     * Starts the batcher, worker, and (when enabled) watchdog
     * threads. @p executor outlives the runtime. @p clock defaults to
     * the process SteadyClock; tests inject a ManualClock. @p chaos,
     * when non-null, injects deterministic control-plane misbehaviour
     * (must outlive the runtime).
     */
    LiveServingRuntime(const LiveServingConfig &config,
                       BatchExecutor &executor, Clock *clock = nullptr,
                       const ChaosInjector *chaos = nullptr);

    /** Drains: blocks until every admitted request resolved. */
    ~LiveServingRuntime();

    LiveServingRuntime(const LiveServingRuntime &) = delete;
    LiveServingRuntime &operator=(const LiveServingRuntime &) = delete;

    /**
     * Submits @p input (seq_len x hidden rows; every request must
     * share the first request's shape). @p deadline_budget_s < 0
     * inherits config deadline_s; >= 0 overrides it for this request
     * (0 means already expired — shed at admission). Returns the
     * future resolving to the request's outcome, or nullopt when
     * admission control rejects (queue full, draining, or over the
     * in-flight limit). A request shed at admission still returns a
     * future (already resolved with Shed).
     */
    std::optional<std::future<LiveRequestResult>>
    submit(Tensor input, std::uint64_t tenant = 0,
           double deadline_budget_s = -1.0) PIMDL_EXCLUDES(stats_mu_);

    /**
     * Stops accepting requests, flushes the queue through the batcher,
     * waits for every in-flight batch, and joins all threads
     * (including watchdog respawns). Idempotent; called by the
     * destructor.
     */
    void drain() PIMDL_EXCLUDES(drain_mu_);

    /** Aggregate stats so far (safe to call while serving). */
    LiveServingStats stats() const PIMDL_EXCLUDES(stats_mu_);

    /** Requests currently waiting for the batcher. */
    std::size_t queueDepth() const;

    /** Current circuit-breaker state of the primary backend path. */
    BreakerState breakerState() const { return breaker_->state(); }

    const LiveServingConfig &config() const { return config_; }

  private:
    struct PendingRequest
    {
        std::uint64_t id = 0;
        std::uint64_t tenant = 0;
        Tensor input;
        double enqueue_s = 0.0;
        /** Absolute deadline, clock seconds; 0 = none. */
        double deadline_abs_s = 0.0;
        std::promise<LiveRequestResult> promise;
        /** In-flight slot held against the AIMD limit; released by
         * fulfill(). */
        std::atomic<std::int64_t> *inflight = nullptr;
        bool fulfilled = false;

        /** Resolves the future exactly once and releases the
         * in-flight slot; later calls are no-ops. */
        void fulfill(LiveRequestResult &&result);

        /** Safety net: a request destroyed unfulfilled (executor
         * unwound past the worker, teardown race) still resolves its
         * future as Failed instead of breaking the promise. */
        ~PendingRequest();
    };

    struct BatchTask
    {
        std::uint64_t id = 0;
        /** Retry-ladder attempts already consumed (watchdog
         * re-dispatch continues where the seized worker stopped). */
        std::size_t attempts_done = 0;
        /** True for sub-batches produced by poison bisection. */
        bool bisected = false;
        std::vector<std::unique_ptr<PendingRequest>> requests;
    };

    /**
     * Heartbeat registry entry shared between one worker thread and
     * the watchdog. The worker publishes its in-flight batch here;
     * the watchdog may seize it (take the requests, mark seized) when
     * the heartbeat goes stale, after which the worker discards its
     * late result.
     */
    struct WorkerState
    {
        std::uint64_t worker_id = 0;
        Mutex mu{"serving.live.worker"};
        bool has_task PIMDL_GUARDED_BY(mu) = false;
        bool seized PIMDL_GUARDED_BY(mu) = false;
        std::uint64_t batch_id PIMDL_GUARDED_BY(mu) = 0;
        std::size_t attempts_done PIMDL_GUARDED_BY(mu) = 0;
        bool bisected PIMDL_GUARDED_BY(mu) = false;
        double heartbeat_s PIMDL_GUARDED_BY(mu) = 0.0;
        std::vector<std::unique_ptr<PendingRequest>> requests
            PIMDL_GUARDED_BY(mu);
        /** Set by the watchdog on respawn: the slot no longer belongs
         * to this thread; exit after the current batch. */
        std::atomic<bool> abandoned{false};
    };

    struct WorkerSlot
    {
        std::thread thread;
        std::shared_ptr<WorkerState> state;
    };

    /** References into the process metrics registry (serving.live.*),
     * resolved once at construction. */
    struct LiveMetrics
    {
        obs::Counter *requests = nullptr;
        obs::Counter *rejected = nullptr;
        obs::Counter *overload_rejected = nullptr;
        obs::Counter *completed = nullptr;
        obs::Counter *shed = nullptr;
        obs::Counter *shed_admission = nullptr;
        obs::Counter *deadline_timeouts = nullptr;
        obs::Counter *failed_requests = nullptr;
        obs::Counter *batches = nullptr;
        obs::Counter *batch_retries = nullptr;
        obs::Counter *failed_batches = nullptr;
        obs::Counter *watchdog_hangs = nullptr;
        obs::Counter *watchdog_respawns = nullptr;
        obs::Counter *watchdog_discarded = nullptr;
        obs::Counter *bisections = nullptr;
        obs::Counter *poison_isolated = nullptr;
        obs::Counter *breaker_short_circuited = nullptr;
        obs::Gauge *queue_depth = nullptr;
        obs::Gauge *availability = nullptr;
        obs::Gauge *inflight_limit = nullptr;
        obs::Histogram *request_latency_s = nullptr;
        obs::Histogram *queue_wait_s = nullptr;
        obs::Histogram *batch_size = nullptr;
        obs::Histogram *batch_service_s = nullptr;
        obs::Histogram *batch_queue_depth = nullptr;
    };

    void batcherLoop();
    void workerLoop(std::shared_ptr<WorkerState> ws);
    void watchdogLoop();
    /** Sheds past-deadline requests, assigns the batch id, enqueues. */
    void dispatch(BatchTask &&task) PIMDL_EXCLUDES(stats_mu_);
    void executeBatch(BatchTask task, WorkerState *ws)
        PIMDL_EXCLUDES(stats_mu_);
    void fulfillShed(std::unique_ptr<PendingRequest> req, double now,
                     bool at_admission) PIMDL_EXCLUDES(stats_mu_);
    /** Terminal failure of a batch the watchdog seized but could not
     * re-dispatch (retries exhausted or work queue refused it). */
    void failBatch(BatchTask task, double now)
        PIMDL_EXCLUDES(stats_mu_);
    /** Marks @p old abandoned and starts a replacement thread in its
     * slot; the dead thread joins at drain. */
    void respawnWorker(const WorkerState *old)
        PIMDL_EXCLUDES(workers_mu_);
    /** Hang threshold: kHangTimeoutFactor x the batch-latency EWMA,
     * floored at kMinHangTimeoutS. */
    double hangTimeoutS() const;
    void aimdIncreaseLocked() PIMDL_REQUIRES(stats_mu_);
    void aimdDecreaseLocked() PIMDL_REQUIRES(stats_mu_);
    LiveServingStats statsLocked() const PIMDL_REQUIRES(stats_mu_);

    LiveServingConfig config_;
    BatchExecutor &executor_;
    Clock *clock_;
    const ChaosInjector *chaos_;
    LiveMetrics m_;
    std::unique_ptr<CircuitBreaker> breaker_;

    BoundedMpmcQueue<std::unique_ptr<PendingRequest>> request_queue_;
    /** Small bound: backpressure that keeps the batcher at most a few
     * batches ahead of the workers (continuous batching, not
     * unbounded buffering). */
    BoundedMpmcQueue<BatchTask> work_queue_;

    std::atomic<bool> draining_{false};
    std::atomic<bool> watchdog_stop_{false};
    std::atomic<std::uint64_t> next_request_id_{1};
    std::atomic<std::uint64_t> next_batch_id_{1};
    std::atomic<std::uint64_t> next_worker_id_{1};
    /** Admitted-but-unresolved requests (the AIMD-limited quantity). */
    std::atomic<std::int64_t> inflight_{0};
    /** Current AIMD limit; read lock-free by submit, updated under
     * stats_mu_. */
    std::atomic<double> inflight_limit_{0.0};
    /** EWMA of served batch latency, seconds (watchdog timeout
     * input). */
    std::atomic<double> batch_service_ewma_{0.0};
    /** Ceiling of the AIMD limit: the derived pipeline capacity. */
    double inflight_cap_ = 0.0;

    /** Serializes drain() callers (destructor vs explicit drain). */
    mutable Mutex drain_mu_{"serving.live.drain"};
    bool drained_ PIMDL_GUARDED_BY(drain_mu_) = false;

    mutable Mutex stats_mu_{"serving.live.stats"};
    LiveServingStats acc_ PIMDL_GUARDED_BY(stats_mu_);
    double batch_size_sum_ PIMDL_GUARDED_BY(stats_mu_) = 0.0;
    std::vector<double> latencies_ PIMDL_GUARDED_BY(stats_mu_);
    std::vector<double> queue_waits_ PIMDL_GUARDED_BY(stats_mu_);
    /** Shape pin: every request must match the first one. */
    std::size_t pinned_rows_ PIMDL_GUARDED_BY(stats_mu_) = 0;
    std::size_t pinned_cols_ PIMDL_GUARDED_BY(stats_mu_) = 0;

    std::thread batcher_;
    std::thread watchdog_;
    /** Live worker slots plus the threads of abandoned (hung) slots;
     * all joined at drain. */
    mutable Mutex workers_mu_{"serving.live.workers"};
    std::vector<WorkerSlot> slots_ PIMDL_GUARDED_BY(workers_mu_);
    std::vector<std::thread> zombies_ PIMDL_GUARDED_BY(workers_mu_);
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_SERVING_LIVE_H
