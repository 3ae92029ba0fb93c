/**
 * @file
 * Live serving runtime with continuous batching, run on threads or
 * replayed single-threaded in virtual time.
 *
 * Request submitters feed a bounded MPMC queue (admission control — a
 * full queue rejects instead of buffering unboundedly), and a worker
 * pool drives a real executor (the functional transformer). Batches
 * bind late: a worker forms its batch from the queue only once it is
 * free, under a max-batch/max-wait policy, so a batch takes everything
 * that queued while the workers were busy. Batches ride a
 * deterministic fault/retry ladder (ServingFaultProfile, draw stream
 * kServingBatchFaultStream), and requests past their deadline are shed
 * at admission or dispatch.
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
 * production uses SteadyClock. LiveServingRuntime::replay runs the same
 * runtime code with no threads on a ReplayClock: arrivals, batch
 * closes and batch executions happen in virtual time, and a
 * ModeledBatchExecutor prices each batch with the PIM-DL engine. That
 * is how the benches model batched serving at deployment scale (the
 * cloud-serving case of the paper's Section 2.2).
 */

#ifndef PIMDL_RUNTIME_SERVING_LIVE_H
#define PIMDL_RUNTIME_SERVING_LIVE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/thread_annotations.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/functional_transformer.h"
#include "runtime/resilience.h"
#include "tensor/tensor.h"

namespace pimdl {

/**
 * Per-batch fault semantics of the serving loop. Batch outcomes are
 * drawn by a counter-based hash of (seed, batch, attempt), so a sweep
 * over batch_fault_rate sees coupled draws: raising the rate can only
 * add faults, which keeps availability/retry curves monotonic.
 */
struct ServingFaultProfile
{
    /** Per dispatch-attempt probability the batch execution fails. */
    double batch_fault_rate = 0.0;
    /** Retries allowed per batch after the initial attempt. */
    std::size_t max_retries = 3;
    /** Backoff before the first retry, seconds. */
    double backoff_base_s = 2e-3;
    /** Backoff ceiling, seconds. */
    double backoff_cap_s = 64e-3;
    /** Root of the per-batch outcome draws. */
    std::uint64_t seed = 0xfa0175ULL;

    bool enabled() const { return batch_fault_rate > 0.0; }

    /** Backoff before retry number @p retry (0-based), seconds. */
    double backoffFor(std::size_t retry) const
    {
        return cappedBackoff(backoff_base_s, backoff_cap_s, retry);
    }

    /** Throws std::runtime_error on nonsensical parameters. */
    void validate() const;
};

/**
 * Poisson arrival times over [0, horizon_s), sorted ascending: the
 * open-loop trace the benches offer both to the threaded runtime and to
 * LiveServingRuntime::replay.
 */
std::vector<double> poissonArrivals(double arrival_rate, double horizon_s,
                                    std::uint64_t seed);

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
    /** Dispatched batch the request executed in, bisection halves
     * included (0 when shed pre-dispatch). */
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
     * open: implementations may fall back to a slower-but-safer path.
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

/**
 * BatchExecutor that computes nothing: it sleeps a batch's modeled PIM
 * latency on a clock, pricing each batch shape with
 * PimDlEngine::estimate under one SchedulePolicy. A batch of
 * tokens.rows() / seq_len requests is priced as @p model at that batch
 * size. Degraded attempts re-execute on the remapped engine and cost
 * kDegradedServiceFactor times as long. Prices are memoized per batch
 * size; safe to call concurrently.
 */
class ModeledBatchExecutor final : public BatchExecutor
{
  public:
    /** Service-time multiplier of a degraded attempt. */
    static constexpr double kDegradedServiceFactor = 1.5;

    /** @p engine and @p clock outlive the executor. */
    ModeledBatchExecutor(const PimDlEngine &engine,
                         const TransformerConfig &model,
                         const LutNnParams &params, SchedulePolicy policy,
                         Clock &clock)
        : engine_(engine), model_(model), params_(params),
          policy_(policy), clock_(clock)
    {}

    Tensor execute(const Tensor &tokens, std::size_t seq_len,
                   bool degraded) override;

    /** Modeled latency of one batch of @p batch requests, seconds. */
    double batchLatency(std::size_t batch) const PIMDL_EXCLUDES(memo_mu_);

  private:
    const PimDlEngine &engine_;
    TransformerConfig model_;
    LutNnParams params_;
    SchedulePolicy policy_;
    Clock &clock_;
    /** Guards memo_ (sweeps price batch shapes in parallel). */
    mutable Mutex memo_mu_{"serving.modeled.latency_memo"};
    mutable std::map<std::size_t, double> memo_ PIMDL_GUARDED_BY(memo_mu_);
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
     * max_batch): standard bucketing that bounds the number of
     * distinct shapes the auto-tuner must plan for. */
    bool pow2_buckets = true;
    /** Slice per-request outputs out of the batch output (off for
     * load tests that only measure latency). */
    bool collect_outputs = true;
    /** Per-batch fault semantics. */
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
    /** Current AIMD in-flight limit (the static pipeline capacity
     * when AIMD is off). */
    double inflight_limit = 0.0;
    /** completed / admitted (submitted - rejected). */
    double availability = 1.0;
};

/** What LiveServingRuntime::replay returns. */
struct LiveReplay
{
    LiveServingStats stats;
    /** One outcome per arrival, in arrival order; nullopt when
     * admission control rejected it. */
    std::vector<std::optional<LiveRequestResult>> requests;
    /** Virtual seconds from the replay's start until the last request
     * resolved. */
    double span_s = 0.0;

    /** Served requests (within or past their deadline) per second. */
    double
    throughputRps() const
    {
        return static_cast<double>(stats.completed + stats.timed_out) /
               std::max(span_s, 1e-9);
    }

    /** Requests served within their deadline per second. */
    double
    goodputRps() const
    {
        return static_cast<double>(stats.completed) /
               std::max(span_s, 1e-9);
    }

    /** Fraction of the span the worker spent executing batches. */
    double
    utilization() const
    {
        return stats.busy_s / std::max(span_s, 1e-9);
    }
};

class ReplayClock;

/**
 * The live serving runtime: a worker pool, an optional watchdog
 * thread, and a bounded request queue between submitters and the
 * workers. Construct, submit() from any number of threads, then
 * drain() (or destroy) to stop: in-flight and queued requests
 * complete, new submits reject.
 */
class LiveServingRuntime
{
  public:
    /**
     * Starts the worker and (when enabled) watchdog threads.
     * @p executor outlives the runtime. @p clock defaults to the
     * process SteadyClock; tests inject a ManualClock. @p chaos, when
     * non-null, injects deterministic control-plane misbehaviour (must
     * outlive the runtime).
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
     * Stops accepting requests, flushes the queue through the workers,
     * waits for every in-flight batch, and joins all threads
     * (including watchdog respawns). Idempotent; called by the
     * destructor.
     */
    void drain() PIMDL_EXCLUDES(drain_mu_);

    /** Aggregate stats so far (safe to call while serving). */
    LiveServingStats stats() const PIMDL_EXCLUDES(stats_mu_);

    /** Requests queued that no forming batch has taken yet. */
    std::size_t queueDepth() const;

    /** Current circuit-breaker state of the primary backend path. */
    BreakerState breakerState() const { return breaker_->state(); }

    const LiveServingConfig &config() const { return config_; }

    /**
     * Replays @p arrivals (seconds after @p clock's current time,
     * ascending) through a runtime that starts no threads: the calling
     * thread runs the worker loop in virtual time on @p clock, arrivals
     * are delivered as the worker waits or sleeps past them, and
     * admission closes after the last arrival. The replay only orders
     * events; batching, shedding, the retry ladder, bisection,
     * breaker, AIMD and stats are the runtime's own code. Each request
     * is a 1x1 tensor (seq_len 1), so a batch's rows are its
     * (bucketed) size; @p executor must sleep its service time on
     * @p clock (ModeledBatchExecutor does). Requires workers == 1, no
     * resilience.watchdog and no @p chaos: the watchdog and chaos
     * injection run on threads only.
     */
    static LiveReplay replay(const LiveServingConfig &config,
                             BatchExecutor &executor, ReplayClock &clock,
                             const std::vector<double> &arrivals,
                             const ChaosInjector *chaos = nullptr);

  private:
    class Drive;
    friend class ReplayClock;

    /** Tag of the constructor that starts no threads (replay). */
    struct Unstarted
    {
    };
    LiveServingRuntime(Unstarted, const LiveServingConfig &config,
                       BatchExecutor &executor, Clock *clock,
                       const ChaosInjector *chaos);

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
        /** Dispatch id; bisection halves keep their batch's id. */
        std::uint64_t id = 0;
        /** Retry-ladder attempts already consumed (watchdog
         * re-dispatch continues where the seized worker stopped). */
        std::size_t attempts_done = 0;
        /** Place in the bisection tree: 1 for a dispatched batch, 2p
         * and 2p + 1 for the halves of p. */
        std::uint64_t split_path = 1;
        std::vector<std::unique_ptr<PendingRequest>> requests;

        /**
         * Key of the batch's per-attempt draws (fault ladder, chaos):
         * the dispatch id, with the split path above bit 40 for a
         * bisection half. Halves draw afresh without taking dispatch
         * ids, so a bisection never shifts a later batch's draws.
         */
        std::uint64_t
        drawKey() const
        {
            return id | ((split_path - 1) << 40);
        }
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
        std::uint64_t split_path PIMDL_GUARDED_BY(mu) = 1;
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
    };

    /** Executes @p task (if any), then forms and executes batches
     * until the request queue is closed and drained. */
    void workerLoop(std::shared_ptr<WorkerState> ws, BatchTask task);
    void watchdogLoop();
    /**
     * Forms the next batch into @p task for a free worker, one worker
     * at a time: it waits for a first request, takes every queued one
     * up to max_batch, and waits out the first one's max-wait only
     * while the batch is not full. At close, requests past their
     * deadline are shed and queued ones refill their slots; @p task
     * comes back empty when all were shed. False once the request
     * queue is closed and drained.
     */
    bool formBatch(BatchTask &task)
        PIMDL_EXCLUDES(forming_mu_, stats_mu_);
    /** Pops the next request, waiting at most @p timeout_s of clock time
     * (infinity: until one queues or the queue is closed and drained).
     * A replay waits by delivering arrivals in virtual time. */
    bool popRequest(std::unique_ptr<PendingRequest> &out,
                    double timeout_s);
    /**
     * Seconds the forming batch @p task may still wait for requests at
     * @p now, 0 once it is full or its oldest request has waited
     * max_wait_s.
     */
    double batchOpenForS(const BatchTask &task, double now) const;
    /** True once drain closed the request queue and it ran empty: the
     * forming batch flushes whatever it holds. */
    bool
    requestQueueDrained() const
    {
        return request_queue_.closed() && request_queue_.empty();
    }
    /** Stops admission: later submits reject, and the forming batch
     * flushes once the request queue runs empty. */
    void closeAdmission();
    void executeBatch(BatchTask task, WorkerState *ws)
        PIMDL_EXCLUDES(stats_mu_);
    void fulfillShed(std::unique_ptr<PendingRequest> req, double now,
                     bool at_admission) PIMDL_EXCLUDES(stats_mu_);
    /** Terminal failure of a batch the watchdog seized with no retries
     * left. */
    void failBatch(BatchTask task, double now)
        PIMDL_EXCLUDES(stats_mu_);
    /** Marks @p old abandoned and starts a replacement thread in its
     * slot that executes @p seized first; the dead thread joins at
     * drain. */
    void respawnWorker(const WorkerState *old, BatchTask seized)
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
    /** The forming turn: one batch forms at a time, so idle workers
     * never split the queued requests between them. A flag rather than
     * a held Mutex, since the former blocks on the request queue and
     * no lock may be held across that wait. */
    Mutex forming_mu_{"serving.live.forming"};
    CondVar turn_free_{"serving.live.turn_free"};
    bool forming_ PIMDL_GUARDED_BY(forming_mu_) = false;
    /** The replay in progress; null on threads. */
    Drive *drive_ = nullptr;

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
    /** Shape pin: every request must match the first one. */
    std::size_t pinned_rows_ PIMDL_GUARDED_BY(stats_mu_) = 0;
    std::size_t pinned_cols_ PIMDL_GUARDED_BY(stats_mu_) = 0;

    std::thread watchdog_;
    /** Live worker slots plus the threads of abandoned (hung) slots;
     * all joined at drain. */
    mutable Mutex workers_mu_{"serving.live.workers"};
    std::vector<WorkerSlot> slots_ PIMDL_GUARDED_BY(workers_mu_);
    std::vector<std::thread> zombies_ PIMDL_GUARDED_BY(workers_mu_);
};

/**
 * The clock of LiveServingRuntime::replay: a ManualClock (whole
 * nanoseconds) that moves only when something sleeps on it. While a
 * replay runs, a sleep first delivers, each at its own time, every
 * arrival due by the time the sleep ends. An executor that sleeps its
 * service time on this clock thus lets requests arrive while its batch
 * executes.
 */
class ReplayClock final : public Clock
{
  public:
    double now() const override { return time_.now(); }
    void sleepFor(double seconds) override;
    bool isVirtual() const override { return true; }

  private:
    friend class LiveServingRuntime;
    ManualClock time_;
    /** The replay in progress; null outside LiveServingRuntime::replay. */
    LiveServingRuntime::Drive *drive_ = nullptr;
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_SERVING_LIVE_H
