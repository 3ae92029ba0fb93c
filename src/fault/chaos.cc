#include "fault/chaos.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault.h"

namespace pimdl {

namespace {

void
checkRate(double rate, const char *field)
{
    if (!(rate >= 0.0 && rate <= 1.0))
        throw std::runtime_error(std::string("ChaosConfig.") + field +
                                 " must be in [0, 1]");
}

} // namespace

void
ChaosConfig::validate() const
{
    checkRate(worker_stall_rate, "worker_stall_rate");
    checkRate(exception_rate, "exception_rate");
    checkRate(slow_rate, "slow_rate");
    checkRate(heartbeat_loss_rate, "heartbeat_loss_rate");
}

ChaosInjector::ChaosInjector(ChaosConfig config)
    : config_(std::move(config))
{
    config_.validate();
    auto &reg = obs::MetricsRegistry::instance();
    stalls_ = &reg.counter("chaos.worker_stalls");
    exceptions_ = &reg.counter("chaos.exceptions");
    slow_batches_ = &reg.counter("chaos.slow_batches");
    heartbeat_losses_ = &reg.counter("chaos.heartbeat_losses");
}

double
ChaosInjector::stallSeconds(std::uint64_t batch,
                            std::uint64_t attempt) const
{
    if (config_.worker_stall_rate <= 0.0)
        return 0.0;
    if (faultHashUniform(config_.seed, kChaosWorkerStallStream, batch,
                         attempt) >= config_.worker_stall_rate)
        return 0.0;
    stalls_->add();
    return kChaosWorkerStallS;
}

bool
ChaosInjector::injectException(std::uint64_t batch, std::uint64_t attempt,
                               bool degraded) const
{
    if (config_.exception_rate <= 0.0)
        return false;
    if (degraded)
        return false;
    if (faultHashUniform(config_.seed, kChaosExceptionStream, batch,
                         attempt) >= config_.exception_rate)
        return false;
    exceptions_->add();
    return true;
}

double
ChaosInjector::slowExtraSeconds(std::uint64_t batch,
                                std::uint64_t attempt) const
{
    if (config_.slow_rate <= 0.0)
        return 0.0;
    if (faultHashUniform(config_.seed, kChaosSlowStream, batch, attempt) >=
        config_.slow_rate)
        return 0.0;
    slow_batches_->add();
    return kChaosSlowExtraS;
}

bool
ChaosInjector::dropHeartbeat(std::uint64_t worker,
                             std::uint64_t batch) const
{
    if (config_.heartbeat_loss_rate <= 0.0)
        return false;
    if (faultHashUniform(config_.seed, kChaosHeartbeatStream, worker,
                         batch) >= config_.heartbeat_loss_rate)
        return false;
    heartbeat_losses_->add();
    return true;
}

} // namespace pimdl
