#include "runtime/resilience.h"

#include <stdexcept>

namespace pimdl {

namespace {

obs::MetricsRegistry &
registry()
{
    return obs::MetricsRegistry::instance();
}

} // namespace

void
WatchdogConfig::validate() const
{
    if (expected_batch_latency_s < 0.0)
        throw std::runtime_error(
            "WatchdogConfig.expected_batch_latency_s must be >= 0");
    if (hang_timeout_factor <= 0.0)
        throw std::runtime_error(
            "WatchdogConfig.hang_timeout_factor must be > 0");
    if (min_hang_timeout_s <= 0.0)
        throw std::runtime_error(
            "WatchdogConfig.min_hang_timeout_s must be > 0");
    if (poll_slice_s <= 0.0)
        throw std::runtime_error("WatchdogConfig.poll_slice_s must be > 0");
}

void
OverloadConfig::validate() const
{
    if (shed_delay_factor <= 0.0)
        throw std::runtime_error(
            "OverloadConfig.shed_delay_factor must be > 0");
    if (assumed_batch_latency_s < 0.0)
        throw std::runtime_error(
            "OverloadConfig.assumed_batch_latency_s must be >= 0");
    if (aimd_min_inflight == 0)
        throw std::runtime_error(
            "OverloadConfig.aimd_min_inflight must be > 0");
    if (aimd_max_inflight != 0 && aimd_max_inflight < aimd_min_inflight)
        throw std::runtime_error("OverloadConfig.aimd_max_inflight must be "
                                 "0 or >= aimd_min_inflight");
    if (aimd_decrease <= 0.0 || aimd_decrease >= 1.0)
        throw std::runtime_error(
            "OverloadConfig.aimd_decrease must be in (0, 1)");
}

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half_open";
    }
    return "unknown";
}

void
CircuitBreakerConfig::validate() const
{
    if (window == 0)
        throw std::runtime_error("CircuitBreakerConfig.window must be > 0");
    if (min_samples == 0 || min_samples > window)
        throw std::runtime_error("CircuitBreakerConfig.min_samples must be "
                                 "in [1, window]");
    if (failure_threshold <= 0.0 || failure_threshold > 1.0)
        throw std::runtime_error("CircuitBreakerConfig.failure_threshold "
                                 "must be in (0, 1]");
    if (open_cooldown_s <= 0.0)
        throw std::runtime_error(
            "CircuitBreakerConfig.open_cooldown_s must be > 0");
    if (half_open_probes == 0)
        throw std::runtime_error(
            "CircuitBreakerConfig.half_open_probes must be > 0");
    if (half_open_successes == 0 || half_open_successes > half_open_probes)
        throw std::runtime_error("CircuitBreakerConfig.half_open_successes "
                                 "must be in [1, half_open_probes]");
}

void
ResilienceConfig::validate() const
{
    watchdog.validate();
    breaker.validate();
    overload.validate();
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig &config,
                               Clock *clock,
                               const std::string &metric_prefix)
    : config_(config), clock_(clock)
{
    config_.validate();
    if (clock_ == nullptr)
        throw std::runtime_error("CircuitBreaker requires a clock");
    state_gauge_ = &registry().gauge(metric_prefix + ".state");
    opens_counter_ = &registry().counter(metric_prefix + ".opens");
    closes_counter_ = &registry().counter(metric_prefix + ".closes");
    probes_counter_ = &registry().counter(metric_prefix + ".probes");
    state_gauge_->set(static_cast<double>(BreakerState::Closed));
}

void
CircuitBreaker::transitionLocked(BreakerState next)
{
    if (next == state_)
        return;
    if (next == BreakerState::Open) {
        opened_at_s_ = clock_->now();
        opens_ += 1;
        opens_counter_->add();
    } else if (next == BreakerState::HalfOpen) {
        probes_issued_ = 0;
        probe_successes_ = 0;
    } else {
        outcomes_.clear();
        window_failures_ = 0;
        closes_counter_->add();
    }
    state_ = next;
    state_gauge_->set(static_cast<double>(state_));
}

void
CircuitBreaker::pushOutcomeLocked(bool failure)
{
    outcomes_.push_back(failure);
    if (failure)
        window_failures_ += 1;
    while (outcomes_.size() > config_.window) {
        if (outcomes_.front())
            window_failures_ -= 1;
        outcomes_.pop_front();
    }
}

bool
CircuitBreaker::allowPrimary()
{
    if (!config_.enabled)
        return true;
    MutexLock lock(mu_);
    if (state_ == BreakerState::Open &&
        clock_->now() - opened_at_s_ >= config_.open_cooldown_s)
        transitionLocked(BreakerState::HalfOpen);
    switch (state_) {
    case BreakerState::Closed:
        return true;
    case BreakerState::Open:
        return false;
    case BreakerState::HalfOpen:
        if (probes_issued_ >= config_.half_open_probes)
            return false;
        probes_issued_ += 1;
        probes_counter_->add();
        return true;
    }
    return true;
}

void
CircuitBreaker::recordSuccess()
{
    if (!config_.enabled)
        return;
    MutexLock lock(mu_);
    if (state_ == BreakerState::Closed) {
        pushOutcomeLocked(false);
    } else if (state_ == BreakerState::HalfOpen) {
        probe_successes_ += 1;
        if (probe_successes_ >= config_.half_open_successes)
            transitionLocked(BreakerState::Closed);
    }
}

void
CircuitBreaker::recordFailure()
{
    if (!config_.enabled)
        return;
    MutexLock lock(mu_);
    if (state_ == BreakerState::Closed) {
        pushOutcomeLocked(true);
        if (outcomes_.size() >= config_.min_samples &&
            static_cast<double>(window_failures_) >=
                config_.failure_threshold *
                    static_cast<double>(outcomes_.size()))
            transitionLocked(BreakerState::Open);
    } else if (state_ == BreakerState::HalfOpen) {
        // A failed probe means the primary path is still sick; re-open
        // and restart the cooldown.
        transitionLocked(BreakerState::Open);
    }
}

BreakerState
CircuitBreaker::state() const
{
    MutexLock lock(mu_);
    return state_;
}

std::size_t
CircuitBreaker::opens() const
{
    MutexLock lock(mu_);
    return opens_;
}

} // namespace pimdl
