#include "serving_live.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace pimdl {

namespace {

/**
 * Real-time wait slice a forming worker polls with when time is
 * virtual: a ManualClock deadline never expires on its own, so the
 * worker must wake periodically and re-read the clock instead of
 * sleeping toward the deadline.
 */
constexpr double kVirtualPollSliceS = 200e-6;

/** popRequest timeout that waits until a request queues or the queue
 * is closed and drained. */
constexpr double kForever = std::numeric_limits<double>::infinity();

/**
 * Remaining max-wait at or below which a forming batch flushes. The
 * remaining wait is a difference of seconds-as-doubles, so a clock
 * advanced by exactly max_wait_s can leave it a rounding error above
 * zero.
 */
constexpr double kMaxWaitEpsS = 1e-9;

/** EWMA weight of the newest served batch latency. */
constexpr double kServiceEwmaAlpha = 0.2;

/** AIMD additive increase of the in-flight limit per cleanly served
 * batch. */
constexpr double kAimdIncrease = 1.0;

std::size_t
pow2Bucket(std::size_t batch, std::size_t max_batch)
{
    std::size_t padded = 1;
    while (padded < batch)
        padded <<= 1;
    return std::min(padded, max_batch);
}

} // namespace

const char *
liveRequestStatusName(LiveRequestStatus status)
{
    switch (status) {
    case LiveRequestStatus::Completed:
        return "completed";
    case LiveRequestStatus::TimedOut:
        return "timed_out";
    case LiveRequestStatus::Shed:
        return "shed";
    case LiveRequestStatus::Failed:
        return "failed";
    }
    return "unknown";
}

Tensor
FunctionalBatchExecutor::execute(const Tensor &tokens,
                                 std::size_t seq_len, bool degraded)
{
    LinearBackendKind backend = backend_;
    if (degraded && backend == LinearBackendKind::PimLut)
        backend = LinearBackendKind::HostLut;
    return model_.forward(tokens, seq_len, backend);
}

void
ServingFaultProfile::validate() const
{
    PIMDL_REQUIRE(std::isfinite(batch_fault_rate) &&
                      batch_fault_rate >= 0.0 && batch_fault_rate <= 1.0,
                  "faults.batch_fault_rate must lie in [0, 1]");
    PIMDL_REQUIRE(std::isfinite(backoff_base_s) && backoff_base_s >= 0.0,
                  "faults.backoff_base_s must be finite and non-negative");
    PIMDL_REQUIRE(std::isfinite(backoff_cap_s) &&
                      backoff_cap_s >= backoff_base_s,
                  "faults.backoff_cap_s must be >= faults.backoff_base_s");
}

std::vector<double>
poissonArrivals(double arrival_rate, double horizon_s, std::uint64_t seed)
{
    PIMDL_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
                  "arrival_rate must be positive (requests/second)");
    PIMDL_REQUIRE(std::isfinite(horizon_s) && horizon_s > 0.0,
                  "horizon_s must be positive (seconds)");
    Rng rng(seed);
    std::vector<double> arrivals;
    double t = 0.0;
    while (true) {
        const double u = std::max(1e-12f, rng.uniform());
        t += -std::log(u) / arrival_rate;
        if (t >= horizon_s)
            break;
        arrivals.push_back(t);
    }
    return arrivals;
}

Tensor
ModeledBatchExecutor::execute(const Tensor &tokens, std::size_t seq_len,
                              bool degraded)
{
    const double latency = batchLatency(tokens.rows() / seq_len);
    clock_.sleepFor(degraded ? kDegradedServiceFactor * latency
                             : latency);
    return tokens;
}

double
ModeledBatchExecutor::batchLatency(std::size_t batch) const
{
    PIMDL_REQUIRE(batch > 0, "batch must be positive");
    {
        MutexLock lock(memo_mu_);
        const auto it = memo_.find(batch);
        if (it != memo_.end())
            return it->second;
    }
    TransformerConfig cfg = model_;
    cfg.batch = batch;
    // Estimate outside the lock: distinct batch shapes plan in
    // parallel, and the engine's own tune memo is thread-safe.
    const InferenceEstimate est = engine_.estimate(
        cfg, params_, ExecutionMode::PimDl, schedulerFor(policy_));
    MutexLock lock(memo_mu_);
    return memo_.emplace(batch, est.total_s).first->second;
}

void
LiveServingConfig::validate() const
{
    PIMDL_REQUIRE(max_batch > 0, "max_batch must be positive");
    PIMDL_REQUIRE(std::isfinite(max_wait_s) && max_wait_s >= 0.0,
                  "max_wait_s must be finite and non-negative");
    PIMDL_REQUIRE(queue_capacity > 0, "queue_capacity must be positive");
    PIMDL_REQUIRE(workers > 0, "workers must be positive");
    PIMDL_REQUIRE(std::isfinite(deadline_s) && deadline_s >= 0.0,
                  "deadline_s must be finite and non-negative (0 = off)");
    faults.validate();
}

void
LiveServingRuntime::PendingRequest::fulfill(LiveRequestResult &&result)
{
    if (fulfilled)
        return;
    fulfilled = true;
    if (inflight != nullptr)
        inflight->fetch_sub(1, std::memory_order_relaxed);
    promise.set_value(std::move(result));
}

LiveServingRuntime::PendingRequest::~PendingRequest()
{
    if (fulfilled)
        return;
    LiveRequestResult result;
    result.status = LiveRequestStatus::Failed;
    result.request_id = id;
    result.tenant = tenant;
    result.enqueue_s = enqueue_s;
    try {
        fulfill(std::move(result));
    } catch (...) {
        // A dead promise (teardown race) is already what the net
        // exists to paper over; never throw from a destructor.
    }
}

LiveServingRuntime::LiveServingRuntime(Unstarted,
                                       const LiveServingConfig &config,
                                       BatchExecutor &executor,
                                       Clock *clock,
                                       const ChaosInjector *chaos)
    : config_((config.validate(), config)), executor_(executor),
      clock_(clock != nullptr ? clock : &SteadyClock::instance()),
      chaos_(chaos),
      request_queue_(config_.queue_capacity,
                     "serving.live.request_queue")
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    m_.requests = &reg.counter("serving.live.requests");
    m_.rejected = &reg.counter("serving.live.rejected");
    m_.overload_rejected =
        &reg.counter("serving.live.overload_rejected");
    m_.completed = &reg.counter("serving.live.completed");
    m_.shed = &reg.counter("serving.live.shed");
    m_.shed_admission = &reg.counter("serving.live.shed_admission");
    m_.deadline_timeouts =
        &reg.counter("serving.live.deadline_timeouts");
    m_.failed_requests = &reg.counter("serving.live.failed_requests");
    m_.batches = &reg.counter("serving.live.batches");
    m_.batch_retries = &reg.counter("serving.live.batch_retries");
    m_.failed_batches = &reg.counter("serving.live.failed_batches");
    m_.watchdog_hangs = &reg.counter("serving.live.watchdog.hangs");
    m_.watchdog_respawns =
        &reg.counter("serving.live.watchdog.respawns");
    m_.watchdog_discarded =
        &reg.counter("serving.live.watchdog.discarded");
    m_.bisections = &reg.counter("serving.live.bisections");
    m_.poison_isolated = &reg.counter("serving.live.poison_isolated");
    m_.breaker_short_circuited =
        &reg.counter("serving.live.breaker.short_circuited");
    m_.queue_depth = &reg.gauge("serving.live.queue_depth");
    m_.availability = &reg.gauge("serving.live.availability");
    m_.inflight_limit = &reg.gauge("serving.live.inflight_limit");
    m_.request_latency_s =
        &reg.histogram("serving.live.request_latency_s");
    m_.queue_wait_s = &reg.histogram("serving.live.queue_wait_s");
    m_.batch_size = &reg.histogram("serving.live.batch_size");
    m_.batch_service_s =
        &reg.histogram("serving.live.batch_service_s");

    breaker_ = std::make_unique<CircuitBreaker>(
        config_.resilience.breaker, clock_, "serving.live.breaker");

    // Pipeline capacity: everything that can be admitted-but-
    // unresolved at once (request queue + one batch per worker, forming
    // or executing).
    inflight_cap_ = static_cast<double>(
        config_.queue_capacity + config_.workers * config_.max_batch);
    inflight_limit_.store(inflight_cap_, std::memory_order_relaxed);
    m_.inflight_limit->set(inflight_cap_);
}

LiveServingRuntime::LiveServingRuntime(const LiveServingConfig &config,
                                       BatchExecutor &executor,
                                       Clock *clock,
                                       const ChaosInjector *chaos)
    : LiveServingRuntime(Unstarted{}, config, executor, clock, chaos)
{
    {
        MutexLock lock(workers_mu_);
        slots_.reserve(config_.workers);
        for (std::size_t i = 0; i < config_.workers; ++i) {
            WorkerSlot slot;
            slot.state = std::make_shared<WorkerState>();
            slot.state->worker_id = next_worker_id_.fetch_add(
                1, std::memory_order_relaxed);
            slot.thread = std::thread(&LiveServingRuntime::workerLoop,
                                      this, slot.state, BatchTask{});
            slots_.push_back(std::move(slot));
        }
    }
    if (config_.resilience.watchdog)
        watchdog_ = std::thread(&LiveServingRuntime::watchdogLoop, this);
}

LiveServingRuntime::~LiveServingRuntime()
{
    drain();
}

std::optional<std::future<LiveRequestResult>>
LiveServingRuntime::submit(Tensor input, std::uint64_t tenant,
                           double deadline_budget_s)
{
    PIMDL_REQUIRE(input.rows() > 0 && input.cols() > 0,
                  "submitted request tensor must be non-empty");
    {
        MutexLock lock(stats_mu_);
        if (pinned_rows_ == 0) {
            pinned_rows_ = input.rows();
            pinned_cols_ = input.cols();
        }
        PIMDL_REQUIRE(input.rows() == pinned_rows_ &&
                          input.cols() == pinned_cols_,
                      "every request must match the first request's "
                      "(seq_len x hidden) shape");
        // Counted only once the shape check passed: a request that
        // throws never reaches an outcome.
        ++acc_.submitted;
    }
    m_.requests->add(1);

    if (draining_.load(std::memory_order_acquire)) {
        MutexLock lock(stats_mu_);
        ++acc_.rejected;
        m_.rejected->add(1);
        return std::nullopt;
    }

    if (config_.resilience.aimd &&
        static_cast<double>(
            inflight_.load(std::memory_order_relaxed)) >=
            inflight_limit_.load(std::memory_order_relaxed)) {
        MutexLock lock(stats_mu_);
        ++acc_.rejected;
        ++acc_.overload_rejected;
        m_.rejected->add(1);
        m_.overload_rejected->add(1);
        return std::nullopt;
    }

    const double now = clock_->now();
    auto req = std::make_unique<PendingRequest>();
    req->id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    req->tenant = tenant;
    req->input = std::move(input);
    req->enqueue_s = now;
    bool has_deadline = false;
    if (deadline_budget_s >= 0.0) {
        req->deadline_abs_s = now + deadline_budget_s;
        has_deadline = true;
    } else if (config_.deadline_s > 0.0) {
        req->deadline_abs_s = now + config_.deadline_s;
        has_deadline = true;
    }
    std::future<LiveRequestResult> future = req->promise.get_future();

    // Shed at admission instead of wasting a queue slot and batcher
    // work on a request whose deadline already passed. The
    // has_deadline flag (not deadline_abs_s > 0) covers an explicit
    // budget of 0 at virtual time 0, where the absolute deadline
    // collides with the "no deadline" sentinel.
    if (has_deadline && now >= req->deadline_abs_s) {
        fulfillShed(std::move(req), now, /*at_admission=*/true);
        return future;
    }

    inflight_.fetch_add(1, std::memory_order_relaxed);
    req->inflight = &inflight_;
    if (!request_queue_.tryPush(std::move(req))) {
        // Queue full (or closed by a drain race): count the rejection.
        // The refused request was dropped; its destructor net resolved
        // the (discarded) future and released the in-flight slot.
        MutexLock lock(stats_mu_);
        ++acc_.rejected;
        m_.rejected->add(1);
        return std::nullopt;
    }
    m_.queue_depth->set(static_cast<double>(request_queue_.size()));
    return future;
}

bool
LiveServingRuntime::formBatch(BatchTask &task)
{
    {
        MutexLock lock(forming_mu_);
        while (forming_)
            turn_free_.wait(forming_mu_);
        forming_ = true;
    }
    struct EndTurn
    {
        LiveServingRuntime &rt;
        ~EndTurn()
        {
            {
                MutexLock lock(rt.forming_mu_);
                rt.forming_ = false;
            }
            rt.turn_free_.notifyOne();
        }
    } end_turn{*this};

    std::unique_ptr<PendingRequest> req;
    for (;;) {
        if (task.requests.empty()) {
            if (!popRequest(req, kForever))
                return false;
            task.requests.push_back(std::move(req));
        }
        while (task.requests.size() < config_.max_batch &&
               request_queue_.tryPop(req))
            task.requests.push_back(std::move(req));
        const double open = batchOpenForS(task, clock_->now());
        if (open > 0.0 && !requestQueueDrained()) {
            // On a timeout or spurious wake the loop re-reads the clock
            // and re-derives the remaining wait.
            if (popRequest(req, open))
                task.requests.push_back(std::move(req));
            continue;
        }
        // Closing: shed what is past its deadline, and let queued
        // requests take the slots that freed.
        const double now = clock_->now();
        std::vector<std::unique_ptr<PendingRequest>> keep;
        keep.reserve(task.requests.size());
        for (auto &r : task.requests) {
            if (r->deadline_abs_s > 0.0 && now >= r->deadline_abs_s)
                fulfillShed(std::move(r), now, /*at_admission=*/false);
            else
                keep.push_back(std::move(r));
        }
        task.requests = std::move(keep);
        if (task.requests.size() == config_.max_batch ||
            request_queue_.empty())
            break;
    }
    m_.queue_depth->set(static_cast<double>(request_queue_.size()));
    if (!task.requests.empty())
        task.id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

double
LiveServingRuntime::batchOpenForS(const BatchTask &task, double now) const
{
    if (task.requests.size() >= config_.max_batch)
        return 0.0;
    const double remaining =
        config_.max_wait_s - (now - task.requests.front()->enqueue_s);
    return remaining <= kMaxWaitEpsS ? 0.0 : remaining;
}

void
LiveServingRuntime::fulfillShed(std::unique_ptr<PendingRequest> req,
                                double now, bool at_admission)
{
    LiveRequestResult result;
    result.status = LiveRequestStatus::Shed;
    result.request_id = req->id;
    result.tenant = req->tenant;
    result.enqueue_s = req->enqueue_s;
    result.done_s = now;
    result.queue_wait_s = now - req->enqueue_s;
    result.latency_s = result.queue_wait_s;
    req->fulfill(std::move(result));
    m_.shed->add(1);
    if (at_admission)
        m_.shed_admission->add(1);
    MutexLock lock(stats_mu_);
    ++acc_.shed;
    if (at_admission)
        ++acc_.shed_admission;
}

void
LiveServingRuntime::failBatch(BatchTask task, double now)
{
    const std::size_t batch = task.requests.size();
    for (auto &req : task.requests) {
        LiveRequestResult result;
        result.status = LiveRequestStatus::Failed;
        result.request_id = req->id;
        result.tenant = req->tenant;
        result.batch_id = task.id;
        result.batch_size = batch;
        result.enqueue_s = req->enqueue_s;
        result.done_s = now;
        result.queue_wait_s = now - req->enqueue_s;
        result.latency_s = result.queue_wait_s;
        req->fulfill(std::move(result));
    }
    m_.failed_requests->add(batch);
    m_.failed_batches->add(1);
    MutexLock lock(stats_mu_);
    acc_.failed_requests += batch;
    ++acc_.failed_batches;
    aimdDecreaseLocked();
}

void
LiveServingRuntime::workerLoop(std::shared_ptr<WorkerState> ws,
                               BatchTask task)
{
    for (;;) {
        // Empty when there is no seized batch to start with, or when
        // every request was shed at close.
        if (!task.requests.empty()) {
            try {
                executeBatch(std::move(task), ws.get());
            } catch (...) {
                // executeBatch already catches executor throws of any
                // type; anything escaping is an internal error. The
                // PendingRequest destructor nets have resolved whatever
                // futures the unwound task still owned.
            }
            if (ws->abandoned.load(std::memory_order_acquire))
                return; // the watchdog replaced this slot
        }
        task = BatchTask{};
        if (!formBatch(task))
            return; // the request queue is closed and drained
    }
}

void
LiveServingRuntime::executeBatch(BatchTask task, WorkerState *ws)
{
    obs::TraceSpan span("serving.live.batch");
    span.attr("batch_id", task.id);
    const std::size_t batch = task.requests.size();
    span.attr("batch_size", static_cast<std::uint64_t>(batch));
    const std::size_t seq = task.requests.front()->input.rows();
    const std::size_t hidden = task.requests.front()->input.cols();
    const std::size_t shape_batch =
        config_.pow2_buckets ? pow2Bucket(batch, config_.max_batch)
                             : batch;

    // Batch input: stack request rows; padding rows (shape bucketing)
    // stay zero.
    Tensor tokens(shape_batch * seq, hidden);
    for (std::size_t i = 0; i < batch; ++i) {
        const Tensor &in = task.requests[i]->input;
        std::memcpy(tokens.rowPtr(i * seq), in.rowPtr(0),
                    seq * hidden * sizeof(float));
    }

    // Publish the batch to the heartbeat registry: from here until
    // the take-back below, the watchdog may seize the requests.
    const std::uint64_t key = task.drawKey();
    const bool hb_dropped =
        chaos_ != nullptr && chaos_->dropHeartbeat(ws->worker_id, key);
    const double start = clock_->now();
    {
        MutexLock lock(ws->mu);
        ws->has_task = true;
        ws->seized = false;
        ws->batch_id = task.id;
        ws->attempts_done = task.attempts_done;
        ws->split_path = task.split_path;
        // A dropped heartbeat backdates the timestamp past any hang
        // threshold: the watchdog will seize a healthy worker (the
        // false-positive path the late-result discard exists for).
        ws->heartbeat_s =
            hb_dropped ? start - 2.0 * hangTimeoutS() : start;
        ws->requests = std::move(task.requests);
    }

    const ServingFaultProfile &faults = config_.faults;
    Tensor output;
    bool served = false;
    std::size_t retries = 0;
    // The breaker gates the primary path of attempt 0 only; retries
    // (and watchdog re-dispatches, which resume past attempt 0) are
    // degraded regardless.
    bool breaker_primary = true;
    if (task.attempts_done == 0) {
        breaker_primary = breaker_->allowPrimary();
        if (!breaker_primary)
            m_.breaker_short_circuited->add(1);
    }
    for (std::size_t attempt = task.attempts_done;
         attempt <= faults.max_retries; ++attempt) {
        const bool degraded = attempt > 0 || !breaker_primary;
        bool faulted = false;
        if (chaos_ != nullptr) {
            const double stall = chaos_->stallSeconds(key, attempt);
            if (stall > 0.0)
                clock_->sleepFor(stall);
        }
        if (chaos_ != nullptr &&
            chaos_->injectException(key, attempt, degraded)) {
            faulted = true;
        } else {
            try {
                output = executor_.execute(tokens, seq, degraded);
            } catch (...) {
                // Catch-all, not just std::exception: an executor
                // throwing an arbitrary type must not unwind past the
                // worker with unresolved futures.
                faulted = true;
            }
            if (chaos_ != nullptr) {
                const double extra =
                    chaos_->slowExtraSeconds(key, attempt);
                if (extra > 0.0)
                    clock_->sleepFor(extra);
            }
        }
        if (!faulted && faults.enabled()) {
            // Keyed on the dispatch id (and split path), so a fixed
            // profile faults the same batch indices in every run.
            const double u = faultHashUniform(
                faults.seed, kServingBatchFaultStream, key, attempt);
            faulted = u < faults.batch_fault_rate;
        }
        if (!degraded) {
            if (faulted)
                breaker_->recordFailure();
            else
                breaker_->recordSuccess();
        }
        if (!hb_dropped) {
            MutexLock lock(ws->mu);
            if (ws->seized)
                break; // requests are gone; stop burning attempts
            ws->attempts_done = attempt + 1;
            ws->heartbeat_s = clock_->now();
        }
        if (!faulted) {
            served = true;
            break;
        }
        if (attempt == faults.max_retries)
            break; // retries exhausted: the batch is lost
        ++retries;
        clock_->sleepFor(faults.backoffFor(attempt));
    }
    const double done = clock_->now();
    const double service = done - start;
    span.attr("service_s", service);
    span.attr("retries", static_cast<std::uint64_t>(retries));

    // Take the requests back from the heartbeat registry. If the
    // watchdog seized them meanwhile they are being retried (or were
    // failed) elsewhere — the late result must be discarded, not
    // double-resolved.
    bool was_seized = false;
    {
        MutexLock lock(ws->mu);
        if (ws->seized) {
            was_seized = true;
        } else {
            task.requests = std::move(ws->requests);
            ws->requests.clear();
        }
        ws->has_task = false;
    }
    if (was_seized) {
        m_.watchdog_discarded->add(1);
        MutexLock lock(stats_mu_);
        ++acc_.watchdog_discarded;
        return;
    }

    if (!served) {
        if (batch > 1) {
            // The whole batch exhausted its retries — isolate the
            // poison by bisection instead of failing the innocents.
            m_.bisections->add(1);
            m_.batches->add(1);
            m_.batch_retries->add(retries);
            {
                MutexLock lock(stats_mu_);
                ++acc_.bisections;
                ++acc_.batches;
                acc_.batch_retries += retries;
                batch_size_sum_ += static_cast<double>(batch);
                acc_.busy_s += service;
                aimdDecreaseLocked();
            }
            const std::size_t half = batch / 2;
            BatchTask left;
            BatchTask right;
            left.id = task.id;
            right.id = task.id;
            left.split_path = 2 * task.split_path;
            right.split_path = 2 * task.split_path + 1;
            for (std::size_t i = 0; i < batch; ++i) {
                if (i < half)
                    left.requests.push_back(
                        std::move(task.requests[i]));
                else
                    right.requests.push_back(
                        std::move(task.requests[i]));
            }
            // Executed inline in this worker: recursion depth is
            // log2(max_batch).
            executeBatch(std::move(left), ws);
            executeBatch(std::move(right), ws);
            return;
        }
        if (batch == 1 && task.split_path > 1) {
            // Bisection bottomed out on a single request: the poison
            // is isolated and fails alone.
            m_.poison_isolated->add(1);
            MutexLock lock(stats_mu_);
            ++acc_.poison_isolated;
        }
    }

    std::size_t completed = 0;
    std::size_t timed_out = 0;
    std::vector<double> batch_latencies;
    batch_latencies.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        std::unique_ptr<PendingRequest> &req = task.requests[i];
        LiveRequestResult result;
        result.request_id = req->id;
        result.tenant = req->tenant;
        result.batch_id = task.id;
        result.batch_size = batch;
        result.enqueue_s = req->enqueue_s;
        result.done_s = done;
        result.queue_wait_s = start - req->enqueue_s;
        result.service_s = service;
        result.latency_s = done - req->enqueue_s;
        if (!served) {
            result.status = LiveRequestStatus::Failed;
            m_.failed_requests->add(1);
        } else {
            const bool late = req->deadline_abs_s > 0.0 &&
                              done > req->deadline_abs_s;
            result.status = late ? LiveRequestStatus::TimedOut
                                 : LiveRequestStatus::Completed;
            if (late)
                ++timed_out;
            else
                ++completed;
            batch_latencies.push_back(result.latency_s);
            m_.request_latency_s->record(result.latency_s);
            m_.queue_wait_s->record(result.queue_wait_s);
            if (config_.collect_outputs) {
                Tensor slice(seq, hidden);
                std::memcpy(slice.rowPtr(0), output.rowPtr(i * seq),
                            seq * hidden * sizeof(float));
                result.output = std::move(slice);
            }
        }
        req->fulfill(std::move(result));
    }

    m_.completed->add(completed);
    m_.deadline_timeouts->add(timed_out);
    m_.batches->add(1);
    m_.batch_retries->add(retries);
    if (!served)
        m_.failed_batches->add(1);
    m_.batch_size->record(static_cast<double>(batch));
    m_.batch_service_s->record(service);

    if (served) {
        // Feed the service EWMA (watchdog timeout). Racy
        // read-modify-write across workers is fine: the estimate is
        // advisory.
        const double prev =
            batch_service_ewma_.load(std::memory_order_relaxed);
        const double next =
            prev <= 0.0 ? service
                        : (1.0 - kServiceEwmaAlpha) * prev +
                              kServiceEwmaAlpha * service;
        batch_service_ewma_.store(next, std::memory_order_relaxed);
    }

    MutexLock lock(stats_mu_);
    acc_.completed += completed;
    acc_.timed_out += timed_out;
    if (!served)
        acc_.failed_requests += batch;
    ++acc_.batches;
    acc_.batch_retries += retries;
    if (!served) {
        ++acc_.failed_batches;
        aimdDecreaseLocked();
    } else if (retries > 0) {
        ++acc_.degraded_batches;
        aimdDecreaseLocked();
    } else {
        aimdIncreaseLocked();
    }
    batch_size_sum_ += static_cast<double>(batch);
    acc_.busy_s += service;
    latencies_.insert(latencies_.end(), batch_latencies.begin(),
                      batch_latencies.end());
}

double
LiveServingRuntime::hangTimeoutS() const
{
    const double ewma =
        batch_service_ewma_.load(std::memory_order_relaxed);
    return std::max(kHangTimeoutFactor * ewma, kMinHangTimeoutS);
}

void
LiveServingRuntime::aimdIncreaseLocked()
{
    if (!config_.resilience.aimd)
        return;
    const double next = std::min(
        inflight_limit_.load(std::memory_order_relaxed) + kAimdIncrease,
        inflight_cap_);
    inflight_limit_.store(next, std::memory_order_relaxed);
    m_.inflight_limit->set(next);
}

void
LiveServingRuntime::aimdDecreaseLocked()
{
    if (!config_.resilience.aimd)
        return;
    const double next = std::max(
        inflight_limit_.load(std::memory_order_relaxed) * kAimdDecrease,
        kAimdMinInflight);
    inflight_limit_.store(next, std::memory_order_relaxed);
    m_.inflight_limit->set(next);
}

void
LiveServingRuntime::respawnWorker(const WorkerState *old, BatchTask seized)
{
    MutexLock lock(workers_mu_);
    for (WorkerSlot &slot : slots_) {
        if (slot.state.get() != old)
            continue;
        slot.state->abandoned.store(true, std::memory_order_release);
        zombies_.push_back(std::move(slot.thread));
        slot.state = std::make_shared<WorkerState>();
        slot.state->worker_id =
            next_worker_id_.fetch_add(1, std::memory_order_relaxed);
        slot.thread = std::thread(&LiveServingRuntime::workerLoop, this,
                                  slot.state, std::move(seized));
        return;
    }
}

void
LiveServingRuntime::watchdogLoop()
{
    while (!watchdog_stop_.load(std::memory_order_acquire)) {
        // Real-time sleep even under a virtual clock — the watchdog
        // re-reads (possibly virtual) time each poll, mirroring the
        // forming worker's poll-slice pattern. Routed through
        // SteadyClock so raw std::this_thread::sleep_for stays banned
        // outside common/clock.h (scripts/lint_invariants.py).
        SteadyClock::instance().sleepFor(kWatchdogPollS);
        const double now = clock_->now();
        const double timeout = hangTimeoutS();

        std::vector<std::shared_ptr<WorkerState>> states;
        {
            MutexLock lock(workers_mu_);
            states.reserve(slots_.size());
            for (const WorkerSlot &slot : slots_)
                states.push_back(slot.state);
        }
        for (const std::shared_ptr<WorkerState> &ws : states) {
            BatchTask seized;
            {
                MutexLock lock(ws->mu);
                if (!ws->has_task || ws->seized)
                    continue;
                if (now - ws->heartbeat_s < timeout)
                    continue;
                // Hung: seize the batch. The worker keeps whatever it
                // is stuck in; its eventual result is discarded.
                ws->seized = true;
                seized.id = ws->batch_id;
                seized.attempts_done = ws->attempts_done + 1;
                seized.split_path = ws->split_path;
                seized.requests = std::move(ws->requests);
                ws->requests.clear();
            }
            m_.watchdog_hangs->add(1);
            m_.batch_retries->add(1);
            {
                MutexLock lock(stats_mu_);
                ++acc_.watchdog_hangs;
                ++acc_.batch_retries;
                aimdDecreaseLocked();
            }
            // The slot's new thread retries the batch first; one
            // with no retries left fails here.
            if (!seized.requests.empty() &&
                seized.attempts_done > config_.faults.max_retries)
                failBatch(std::exchange(seized, BatchTask{}),
                          clock_->now());
            respawnWorker(ws.get(), std::move(seized));
            m_.watchdog_respawns->add(1);
            MutexLock lock(stats_mu_);
            ++acc_.watchdog_respawns;
        }
    }
}

void
LiveServingRuntime::drain()
{
    MutexLock lock(drain_mu_);
    if (drained_)
        return;
    drained_ = true;
    closeAdmission();
    // Workers drain the closed request queue and exit. The watchdog
    // keeps running while we join so hung batches can still be seized
    // (their futures resolve even though the hung thread itself blocks
    // its join until the executor returns). A respawned worker runs
    // its seized batch, then sees the drained queue and exits; loop
    // until the slot table is quiescent.
    auto join_sweep = [this]() {
        for (;;) {
            std::vector<std::thread> joinable;
            {
                MutexLock workers_lock(workers_mu_);
                for (WorkerSlot &slot : slots_)
                    if (slot.thread.joinable())
                        joinable.push_back(std::move(slot.thread));
                for (std::thread &z : zombies_)
                    if (z.joinable())
                        joinable.push_back(std::move(z));
                zombies_.clear();
            }
            if (joinable.empty())
                return;
            for (std::thread &t : joinable)
                t.join();
        }
    };
    join_sweep();
    watchdog_stop_.store(true, std::memory_order_release);
    if (watchdog_.joinable())
        watchdog_.join();
    // A respawn racing the first sweep could have started a thread
    // after the sweep's last snapshot; with the watchdog stopped this
    // second sweep is exhaustive.
    join_sweep();
    m_.availability->set(stats().availability);
    m_.queue_depth->set(0.0);
}

LiveServingStats
LiveServingRuntime::statsLocked() const
{
    LiveServingStats stats = acc_;
    if (stats.batches > 0)
        stats.mean_batch_size =
            batch_size_sum_ / static_cast<double>(stats.batches);
    if (!latencies_.empty()) {
        std::vector<double> sorted = latencies_;
        std::sort(sorted.begin(), sorted.end());
        auto percentile = [&](double p) {
            const std::size_t idx = static_cast<std::size_t>(
                p * static_cast<double>(sorted.size() - 1));
            return sorted[idx];
        };
        double sum = 0.0;
        for (double l : sorted)
            sum += l;
        stats.mean_latency_s =
            sum / static_cast<double>(sorted.size());
        stats.p50_latency_s = percentile(0.50);
        stats.p95_latency_s = percentile(0.95);
        stats.p99_latency_s = percentile(0.99);
    }
    stats.breaker_opens = breaker_->opens();
    stats.inflight_limit =
        inflight_limit_.load(std::memory_order_relaxed);
    const std::size_t admitted = stats.submitted - stats.rejected;
    if (admitted > 0)
        stats.availability =
            static_cast<double>(stats.completed) /
            static_cast<double>(admitted);
    return stats;
}

LiveServingStats
LiveServingRuntime::stats() const
{
    MutexLock lock(stats_mu_);
    return statsLocked();
}

std::size_t
LiveServingRuntime::queueDepth() const
{
    return request_queue_.size();
}

void
LiveServingRuntime::closeAdmission()
{
    draining_.store(true, std::memory_order_release);
    request_queue_.close();
}

/**
 * The arrivals of LiveServingRuntime::replay. The calling thread runs
 * the runtime's worker loop; a Drive delivers each arrival, in virtual
 * time, when the worker waits for a request (popRequest) or sleeps past
 * it (ReplayClock::sleepFor). Every decision is the runtime's.
 */
class LiveServingRuntime::Drive
{
  public:
    Drive(LiveServingRuntime &runtime, ReplayClock &clock,
          const std::vector<double> &arrivals)
        : futures_(arrivals.size()), rt_(runtime), clock_(clock)
    {
        const std::int64_t start = clock_.time_.nanos();
        arrival_ns_.reserve(arrivals.size());
        for (double a : arrivals)
            arrival_ns_.push_back(start + std::llround(a * 1e9));
        clock_.drive_ = this;
        rt_.drive_ = this;
        if (arrival_ns_.empty())
            rt_.closeAdmission();
    }

    ~Drive()
    {
        clock_.drive_ = nullptr;
        rt_.drive_ = nullptr;
    }

    /** Delivers every arrival due by @p target_ns, then moves time
     * there. */
    void
    advanceTo(std::int64_t target_ns)
    {
        while (next_arrival_ < arrival_ns_.size() &&
               arrival_ns_[next_arrival_] <= target_ns)
            arrive();
        moveTo(target_ns);
    }

    /** popRequest in virtual time: delivers arrivals until one is
     * queued, or until @p timeout_s passed or none is left (false). */
    bool
    popArrival(std::unique_ptr<PendingRequest> &out, double timeout_s)
    {
        const std::int64_t until =
            std::isinf(timeout_s)
                ? kNever
                : clock_.time_.nanos() +
                      std::max<std::int64_t>(std::llround(timeout_s * 1e9),
                                             1);
        while (!rt_.request_queue_.tryPop(out)) {
            if (next_arrival_ == arrival_ns_.size())
                return false; // admission closed at the last arrival
            if (arrival_ns_[next_arrival_] > until) {
                moveTo(until);
                return false;
            }
            arrive();
        }
        return true;
    }

    /** One per arrival; nullopt where admission rejected it. */
    std::vector<std::optional<std::future<LiveRequestResult>>> futures_;

  private:
    static constexpr std::int64_t kNever =
        std::numeric_limits<std::int64_t>::max();

    void
    moveTo(std::int64_t t_ns)
    {
        clock_.time_.advanceNanos(t_ns - clock_.time_.nanos());
    }

    /** Moves time to the next arrival and submits it. */
    void
    arrive()
    {
        moveTo(arrival_ns_[next_arrival_]);
        futures_[next_arrival_++] = rt_.submit(Tensor(1, 1));
        if (next_arrival_ == arrival_ns_.size())
            rt_.closeAdmission();
    }

    LiveServingRuntime &rt_;
    ReplayClock &clock_;
    std::vector<std::int64_t> arrival_ns_;
    std::size_t next_arrival_ = 0;
};

bool
LiveServingRuntime::popRequest(std::unique_ptr<PendingRequest> &out,
                               double timeout_s)
{
    if (drive_ != nullptr)
        return drive_->popArrival(out, timeout_s);
    if (std::isinf(timeout_s))
        return request_queue_.pop(out);
    return request_queue_.popFor(
        out, clock_->isVirtual() ? kVirtualPollSliceS : timeout_s);
}

LiveReplay
LiveServingRuntime::replay(const LiveServingConfig &config,
                           BatchExecutor &executor, ReplayClock &clock,
                           const std::vector<double> &arrivals,
                           const ChaosInjector *chaos)
{
    PIMDL_REQUIRE(config.workers == 1,
                  "replay runs one worker: workers must be 1");
    PIMDL_REQUIRE(!config.resilience.watchdog,
                  "replay cannot run resilience.watchdog (threads only)");
    PIMDL_REQUIRE(chaos == nullptr,
                  "replay cannot inject chaos (threads only)");
    PIMDL_REQUIRE(std::is_sorted(arrivals.begin(), arrivals.end()) &&
                      (arrivals.empty() || arrivals.front() >= 0.0),
                  "arrivals must be non-negative and ascending");

    LiveServingRuntime runtime(Unstarted{}, config, executor, &clock,
                               nullptr);
    const double start = clock.now();
    LiveReplay out;
    {
        Drive drive(runtime, clock, arrivals);
        runtime.workerLoop(std::make_shared<WorkerState>(), BatchTask{});
        for (auto &f : drive.futures_)
            out.requests.push_back(f ? std::optional(f->get())
                                     : std::nullopt);
    }
    runtime.drain();
    out.stats = runtime.stats();
    out.span_s = clock.now() - start;
    return out;
}

void
ReplayClock::sleepFor(double seconds)
{
    if (seconds <= 0.0)
        return;
    const std::int64_t target =
        time_.nanos() + std::llround(seconds * 1e9);
    if (drive_ != nullptr)
        drive_->advanceTo(target);
    else
        time_.advanceNanos(target - time_.nanos());
}

} // namespace pimdl
