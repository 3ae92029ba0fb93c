#include "backend.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "backend/analytical.h"
#include "backend/transaction.h"
#include "obs/metrics.h"

namespace pimdl {

const char *
timingBackendKindName(TimingBackendKind kind)
{
    switch (kind) {
    case TimingBackendKind::Analytical:
        return "analytical";
    case TimingBackendKind::Transaction:
        return "transaction";
    }
    return "?";
}

bool
parseTimingBackendKind(const std::string &name, TimingBackendKind *out)
{
    if (name == "analytical") {
        *out = TimingBackendKind::Analytical;
        return true;
    }
    if (name == "transaction" || name == "txn") {
        *out = TimingBackendKind::Transaction;
        return true;
    }
    return false;
}

TimingBackendKind
defaultTimingBackendKind()
{
    const char *env = std::getenv("PIMDL_BACKEND");
    if (env == nullptr || env[0] == '\0')
        return TimingBackendKind::Analytical;
    TimingBackendKind kind = TimingBackendKind::Analytical;
    if (!parseTimingBackendKind(env, &kind))
        throw std::runtime_error(
            "PIMDL_BACKEND=\"" + std::string(env) +
            "\" is not a timing backend (expected "
            "\"analytical\" or \"transaction\")");
    return kind;
}

void
TransactionSimConfig::validate() const
{
    if (host_traffic_intensity < 0.0 || host_traffic_intensity > 0.85)
        throw std::runtime_error(
            "TransactionSimConfig.host_traffic_intensity must be in "
            "[0, 0.85] (beyond that the PIM share of a quantum vanishes)");
}

CostedPlan
TimingBackend::cost(const Plan &plan) const
{
    CostedPlan costed;
    costed.plan = plan;
    costed.costs.reserve(plan.nodes.size());
    for (const PlanNode &node : plan.nodes)
        costed.costs.push_back(costNode(plan, node));
    return costed;
}

std::unique_ptr<TimingBackend>
makeTimingBackend(TimingBackendKind kind, PimPlatformConfig platform,
                  HostProcessorConfig host,
                  const TransactionSimConfig &txn_config)
{
    obs::MetricsRegistry::instance().gauge("backend.impl").set(
        kind == TimingBackendKind::Transaction ? 1.0 : 0.0);
    if (kind == TimingBackendKind::Transaction)
        return std::make_unique<TransactionBackend>(
            std::move(platform), std::move(host), txn_config);
    return std::make_unique<AnalyticalBackend>(std::move(platform),
                                               std::move(host));
}

} // namespace pimdl
