/**
 * @file
 * Pluggable timing backends: the interface every latency consumer
 * (engine, plan schedulers, tuner re-costing, serving replays) goes
 * through to turn a lowered Plan into per-node and end-to-end timing.
 *
 * Two implementations ship (DESIGN.md Section 12):
 *  - AnalyticalBackend (analytical.h): the paper's closed-form model,
 *    Equations 3-10 plus the host rooflines — a golden-preserving
 *    relocation of the costing previously hard-coded in the engine.
 *  - TransactionBackend (transaction.h): a clocked command-level
 *    simulator in the spirit of PIMSIM-NN / LP5X-PIM Sim (PAPERS.md):
 *    per-bank PIM instruction queues, explicit broadcast/LUT-read/
 *    accumulate/transfer commands generated from the Plan, host-vs-PIM
 *    request arbitration with mode-switch overhead, DRAM refresh, and a
 *    co-located host DRAM traffic knob.
 *
 * Backend choice is a runtime switch: benches take
 * `--backend=analytical|transaction` and every default-constructed
 * engine honours the PIMDL_BACKEND environment variable.
 */

#ifndef PIMDL_BACKEND_BACKEND_H
#define PIMDL_BACKEND_BACKEND_H

#include <memory>
#include <string>

#include "host/host_model.h"
#include "pim/platform.h"
#include "plan/plan.h"
#include "plan/schedule.h"
#include "tuner/cost_model.h"

namespace pimdl {

/** Stable identifier of the built-in timing backends. */
enum class TimingBackendKind
{
    Analytical,
    Transaction,
};

/** Human-readable backend name ("analytical" / "transaction"). */
const char *timingBackendKindName(TimingBackendKind kind);

/**
 * Parses a backend spelling ("analytical", "transaction", plus the
 * short alias "txn"); returns false on anything else.
 */
bool parseTimingBackendKind(const std::string &name,
                            TimingBackendKind *out);

/**
 * Backend newly constructed engines default to: the PIMDL_BACKEND
 * environment variable when set (parsed as above; throws
 * std::runtime_error on an unknown spelling so CI matrix typos fail
 * loudly), otherwise Analytical.
 */
TimingBackendKind defaultTimingBackendKind();

/**
 * Knobs of the transaction-level simulator. Its DDR4-class timing
 * (tREFI, arbitration quantum, command granularity) is fixed in
 * transaction.cc.
 */
struct TransactionSimConfig
{
    /**
     * Co-located host DRAM traffic intensity: the fraction of each
     * arbitration quantum the memory controller grants to regular host
     * requests hitting the PIM banks. 0 disables arbitration entirely
     * (the zero-traffic run is bit-identical to a no-arbitration run).
     */
    double host_traffic_intensity = 0.0;
    /** Keep a per-command execution log in reports (tests only). */
    bool record_commands = false;

    /** Throws std::runtime_error with a field-naming message when bad. */
    void validate() const;
};

/**
 * A timing backend: produces per-node costs for a lowered plan under
 * one PIM platform + host pair. Node costs are schedule-independent
 * (each node is timed from a quiet device), so every plan/schedule.h
 * scheduler composes with every backend unchanged.
 *
 * Also a LutTimingModel, so a backend can be injected into the tuner's
 * candidate search (AutoTuner::setTimingModel).
 */
class TimingBackend : public LutTimingModel
{
  public:
    virtual const char *name() const = 0;
    virtual TimingBackendKind kind() const = 0;

    /** Latency/traffic cost of one plan node under this backend. */
    virtual NodeCost costNode(const Plan &plan,
                              const PlanNode &node) const = 0;

    /** Costs every node of @p plan (assumed validated by the caller). */
    CostedPlan cost(const Plan &plan) const;
};

/**
 * Constructs a backend of @p kind bound to one platform/host pair.
 * @p txn_config only affects the transaction backend. Publishes the
 * "backend.impl" gauge (0 = analytical, 1 = transaction).
 */
std::unique_ptr<TimingBackend>
makeTimingBackend(TimingBackendKind kind, PimPlatformConfig platform,
                  HostProcessorConfig host,
                  const TransactionSimConfig &txn_config = {});

} // namespace pimdl

#endif // PIMDL_BACKEND_BACKEND_H
