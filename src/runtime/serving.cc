#include "serving.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pimdl {

void
ServingFaultProfile::validate() const
{
    PIMDL_REQUIRE(std::isfinite(batch_fault_rate) &&
                      batch_fault_rate >= 0.0 && batch_fault_rate <= 1.0,
                  "faults.batch_fault_rate must lie in [0, 1]");
    PIMDL_REQUIRE(std::isfinite(degraded_service_factor) &&
                      degraded_service_factor >= 1.0,
                  "faults.degraded_service_factor must be >= 1");
    PIMDL_REQUIRE(std::isfinite(backoff_base_s) && backoff_base_s >= 0.0,
                  "faults.backoff_base_s must be finite and non-negative");
    PIMDL_REQUIRE(std::isfinite(backoff_cap_s) &&
                      backoff_cap_s >= backoff_base_s,
                  "faults.backoff_cap_s must be >= faults.backoff_base_s");
}

void
ServingConfig::validate() const
{
    PIMDL_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
                  "arrival_rate must be positive (requests/second)");
    PIMDL_REQUIRE(std::isfinite(horizon_s) && horizon_s > 0.0,
                  "horizon_s must be positive (seconds)");
    PIMDL_REQUIRE(max_batch > 0, "max_batch must be positive");
    PIMDL_REQUIRE(std::isfinite(max_wait_s) && max_wait_s >= 0.0,
                  "max_wait_s must be finite and non-negative");
    PIMDL_REQUIRE(std::isfinite(deadline_s) && deadline_s >= 0.0,
                  "deadline_s must be finite and non-negative (0 = off)");
    faults.validate();
}

ServingSimulator::ServingSimulator(const PimDlEngine &engine,
                                   const TransformerConfig &model,
                                   const LutNnParams &params)
    : engine_(engine), model_(model), params_(params)
{}

double
ServingSimulator::batchLatency(std::size_t batch,
                               SchedulePolicy policy) const
{
    PIMDL_REQUIRE(batch > 0, "batch must be positive");
    const auto key = std::make_pair(batch, policy);
    {
        MutexLock lock(cache_mu_);
        const auto it = latency_cache_.find(key);
        if (it != latency_cache_.end())
            return it->second;
    }

    TransformerConfig cfg = model_;
    cfg.batch = batch;
    // Estimate outside the lock: distinct batch shapes plan in
    // parallel, and the engine's own tune memo is thread-safe.
    const InferenceEstimate est =
        engine_.estimate(cfg, params_, ExecutionMode::PimDl,
                         schedulerFor(policy));
    MutexLock lock(cache_mu_);
    return latency_cache_.emplace(key, est.total_s).first->second;
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

ServingStats
simulateServingTrace(const ServingConfig &config,
                     const std::vector<double> &arrivals,
                     const BatchLatencyFn &latency)
{
    config.validate();
    PIMDL_REQUIRE(std::is_sorted(arrivals.begin(), arrivals.end()),
                  "arrival trace must be sorted ascending");

    obs::TraceSpan span("serving.simulate");
    span.attr("arrival_rate", config.arrival_rate);
    span.attr("max_batch", static_cast<std::uint64_t>(config.max_batch));
    span.attr("horizon_s", config.horizon_s);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_requests = reg.counter("serving.requests");
    static obs::Counter &c_batches = reg.counter("serving.batches");
    static obs::Histogram &h_latency =
        reg.histogram("serving.request_latency_s");
    static obs::Histogram &h_batch = reg.histogram("serving.batch_size");
    static obs::Histogram &h_queue = reg.histogram("serving.queue_depth");
    static obs::Gauge &g_util = reg.gauge("serving.utilization");
    // The fault.serving.* metrics are registered unconditionally, so
    // a fault-free run still publishes its (zero) availability
    // accounting.
    static obs::Counter &c_f_retries =
        reg.counter("fault.serving.batch_retries");
    static obs::Counter &c_f_failed_batches =
        reg.counter("fault.serving.failed_batches");
    static obs::Counter &c_f_failed_requests =
        reg.counter("fault.serving.failed_requests");
    static obs::Counter &c_f_timeouts =
        reg.counter("fault.serving.deadline_timeouts");
    static obs::Counter &c_f_degraded =
        reg.counter("fault.serving.degraded_batches");
    static obs::Gauge &g_f_avail =
        reg.gauge("fault.serving.availability");

    ServingStats stats;
    stats.requests = arrivals.size();
    if (arrivals.empty())
        return stats;

    std::vector<double> latencies;
    latencies.reserve(arrivals.size());

    std::deque<double> queue; // arrival times of waiting requests
    std::size_t next_arrival = 0;
    double now = 0.0;
    double busy = 0.0;
    double batch_size_sum = 0.0;

    while (next_arrival < arrivals.size() || !queue.empty()) {
        // Admit everything that has arrived by `now`.
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival] <= now) {
            queue.push_back(arrivals[next_arrival]);
            ++next_arrival;
        }

        if (queue.empty()) {
            // Idle until the next arrival.
            now = arrivals[next_arrival];
            continue;
        }

        // Dispatch decision: full batch, or deadline hit, or no more
        // arrivals will ever come. The epsilon guards against the
        // rounding of (front + max_wait) - front landing one ULP under
        // max_wait, which would stall the clock.
        constexpr double kEps = 1e-9;
        const bool full = queue.size() >= config.max_batch;
        const bool deadline =
            now - queue.front() >= config.max_wait_s - kEps;
        const bool drained = next_arrival >= arrivals.size();
        if (!full && !deadline && !drained) {
            // Wait for whichever comes first: batch-filling arrival or
            // the oldest request's deadline.
            const double next_deadline =
                queue.front() + config.max_wait_s;
            const double target =
                std::min(arrivals[next_arrival], next_deadline);
            // Guarantee forward progress regardless of rounding.
            now = std::max(target, now + kEps);
            continue;
        }

        h_queue.record(static_cast<double>(queue.size()));
        const std::size_t batch =
            std::min<std::size_t>(queue.size(), config.max_batch);
        h_batch.record(static_cast<double>(batch));
        std::size_t shape_batch = batch;
        if (config.pow2_buckets) {
            std::size_t padded = 1;
            while (padded < batch)
                padded <<= 1;
            shape_batch = std::min(padded, config.max_batch);
        }
        const double base_service = latency(shape_batch);

        // Per-batch fault outcome: the initial attempt runs at full
        // speed; each retry re-executes on the degraded (remapped)
        // engine after a capped exponential backoff. Draws key on the
        // batch index so rate sweeps see coupled (monotonic) outcomes.
        double service = base_service;
        bool served = true;
        std::size_t retries_this_batch = 0;
        if (config.faults.enabled()) {
            served = false;
            service = 0.0;
            const std::uint64_t batch_idx = stats.batches;
            for (std::size_t attempt = 0;
                 attempt <= config.faults.max_retries; ++attempt) {
                service += attempt == 0
                               ? base_service
                               : base_service *
                                     config.faults.degraded_service_factor;
                const double u = faultHashUniform(
                    config.faults.seed, kServingBatchFaultStream,
                    batch_idx, attempt);
                if (u >= config.faults.batch_fault_rate) {
                    served = true;
                    break;
                }
                if (attempt == config.faults.max_retries)
                    break; // retries exhausted: the batch is lost
                ++retries_this_batch;
                service += config.faults.backoffFor(attempt);
            }
            stats.batch_retries += retries_this_batch;
        }

        const double done = now + service;
        for (std::size_t i = 0; i < batch; ++i) {
            const double lat = done - queue.front();
            queue.pop_front();
            if (!served) {
                ++stats.failed_requests;
                continue;
            }
            ++stats.completed;
            latencies.push_back(lat);
            h_latency.record(lat);
            if (config.deadline_s > 0.0 && lat > config.deadline_s)
                ++stats.timed_out;
        }
        busy += service;
        batch_size_sum += static_cast<double>(batch);
        ++stats.batches;
        if (!served)
            ++stats.failed_batches;
        else if (retries_this_batch > 0)
            ++stats.degraded_batches;
        now = done;
    }

    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        auto percentile = [&](double p) {
            const std::size_t idx = static_cast<std::size_t>(
                p * static_cast<double>(latencies.size() - 1));
            return latencies[idx];
        };

        double sum = 0.0;
        for (double l : latencies)
            sum += l;

        stats.mean_latency_s =
            sum / static_cast<double>(latencies.size());
        stats.p50_latency_s = percentile(0.50);
        stats.p95_latency_s = percentile(0.95);
        stats.p99_latency_s = percentile(0.99);
    }

    const std::size_t in_deadline = stats.completed - stats.timed_out;
    stats.mean_batch_size =
        batch_size_sum / static_cast<double>(stats.batches);
    stats.throughput_rps =
        static_cast<double>(latencies.size()) / std::max(now, 1e-9);
    stats.goodput_rps =
        static_cast<double>(in_deadline) / std::max(now, 1e-9);
    stats.utilization = busy / std::max(now, 1e-9);
    stats.availability = static_cast<double>(in_deadline) /
                         static_cast<double>(stats.requests);

    c_requests.add(stats.requests);
    c_batches.add(stats.batches);
    g_util.set(stats.utilization);
    c_f_retries.add(stats.batch_retries);
    c_f_failed_batches.add(stats.failed_batches);
    c_f_failed_requests.add(stats.failed_requests);
    c_f_timeouts.add(stats.timed_out);
    c_f_degraded.add(stats.degraded_batches);
    g_f_avail.set(stats.availability);
    span.attr("requests", static_cast<std::uint64_t>(stats.requests));
    span.attr("p99_s", stats.p99_latency_s);
    span.attr("availability", stats.availability);
    span.attr("batch_retries",
              static_cast<std::uint64_t>(stats.batch_retries));
    return stats;
}

ServingStats
ServingSimulator::simulate(const ServingConfig &config) const
{
    config.validate();
    const std::vector<double> arrivals = poissonArrivals(
        config.arrival_rate, config.horizon_s, config.seed);
    return simulateServingTrace(
        config, arrivals, [this, &config](std::size_t batch) {
            return batchLatency(batch, config.policy);
        });
}

} // namespace pimdl
