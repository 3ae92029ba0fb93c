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

CircuitBreaker::CircuitBreaker(bool enabled, Clock *clock,
                               const std::string &metric_prefix)
    : enabled_(enabled), clock_(clock)
{
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
    while (outcomes_.size() > kBreakerWindow) {
        if (outcomes_.front())
            window_failures_ -= 1;
        outcomes_.pop_front();
    }
}

bool
CircuitBreaker::allowPrimary()
{
    if (!enabled_)
        return true;
    MutexLock lock(mu_);
    if (state_ == BreakerState::Open &&
        clock_->now() - opened_at_s_ >= kBreakerCooldownS)
        transitionLocked(BreakerState::HalfOpen);
    switch (state_) {
    case BreakerState::Closed:
        return true;
    case BreakerState::Open:
        return false;
    case BreakerState::HalfOpen:
        if (probes_issued_ >= kBreakerProbes)
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
    if (!enabled_)
        return;
    MutexLock lock(mu_);
    if (state_ == BreakerState::Closed) {
        pushOutcomeLocked(false);
    } else if (state_ == BreakerState::HalfOpen) {
        probe_successes_ += 1;
        if (probe_successes_ >= kBreakerProbeSuccesses)
            transitionLocked(BreakerState::Closed);
    }
}

void
CircuitBreaker::recordFailure()
{
    if (!enabled_)
        return;
    MutexLock lock(mu_);
    if (state_ == BreakerState::Closed) {
        pushOutcomeLocked(true);
        if (outcomes_.size() >= kBreakerMinSamples &&
            static_cast<double>(window_failures_) >=
                kBreakerFailureThreshold *
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
