/**
 * @file
 * Static verification of lowered plans: an MLIR-style pass pipeline
 * over the Plan IR plus standalone checks for schedules and degraded
 * remaps.
 *
 * The analytical engine, the serving replays, and the benches all
 * consume plans produced by lowering + mapping attachment. Each of
 * those stages has invariants (topological order, device legality,
 * shape/dtype flow, per-platform capacity, schedule hazards) that used
 * to be enforced only piecemeal — `Plan::validate()` covers the graph
 * basics, `mappingIsLegal` the tuner constraints — and only at some
 * call sites. This module centralizes them as composable verifier
 * passes: each pass walks the IR, appends node-addressed diagnostics,
 * and never mutates the plan. A `PassManager` runs a pipeline and
 * publishes verify.* metrics so CI can gate on verification activity.
 *
 * Verification defaults on in debug builds and off in release builds;
 * the `PIMDL_VERIFY_PLANS` environment variable (or
 * `setVerifyPlansEnabled`) overrides either way.
 */

#ifndef PIMDL_VERIFY_VERIFY_H
#define PIMDL_VERIFY_VERIFY_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "pim/platform.h"
#include "plan/plan.h"
#include "plan/schedule.h"

namespace pimdl {
namespace verify {

/** How bad a diagnostic is. Only Error fails verification. */
enum class Severity
{
    /** Informational: a check was skipped or an oddity noted. */
    Note,
    /** Suspicious but not provably wrong (plan still usable). */
    Warning,
    /** Invariant violation: the plan must not be executed. */
    Error,
};

/** Human-readable severity name. */
const char *severityName(Severity severity);

/** One finding of one pass, optionally anchored to a plan node. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    /** Name of the pass that emitted the finding. */
    std::string pass;
    /** True when `node` identifies the offending PlanNode. */
    bool has_node = false;
    std::size_t node = 0;
    std::string message;

    /** "[pass] error node 12: message" rendering. */
    std::string str() const;
};

/** Accumulated diagnostics of a verification run. */
class VerifyResult
{
  public:
    void add(Diagnostic diag);

    /** Convenience emitters used by the passes. */
    void addNodeDiag(Severity severity, const std::string &pass,
                     std::size_t node, std::string message);
    void addPlanDiag(Severity severity, const std::string &pass,
                     std::string message);

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    std::size_t count(Severity severity) const;
    std::size_t errorCount() const { return count(Severity::Error); }

    /** True when no Error-severity diagnostic was recorded. */
    bool ok() const { return errorCount() == 0; }

    /**
     * True when some diagnostic from @p pass anchors to @p node.
     * Test hook: negative tests assert the offending node is named.
     */
    bool hasNodeDiag(const std::string &pass, std::size_t node) const;

    /** First @p max_lines diagnostics, one per line, errors first. */
    std::string summary(std::size_t max_lines = 8) const;

  private:
    std::vector<Diagnostic> diags_;
};

/** Read-only inputs a pass sees. `platform` may be null; passes that
 * need it emit a Note and skip instead of failing. */
struct VerifyContext
{
    const Plan *plan = nullptr;
    const PimPlatformConfig *platform = nullptr;
};

/** One verification pass over the Plan IR. Passes are stateless and
 * never mutate the plan; they only append diagnostics. */
class VerifyPass
{
  public:
    virtual ~VerifyPass() = default;
    virtual const char *name() const = 0;
    virtual void run(const VerifyContext &ctx,
                     VerifyResult &result) const = 0;
};

/**
 * Graph well-formedness: node ids match their position, dependency
 * edges reference strictly earlier nodes (no dangling edges, no
 * cycles by construction), duplicate edges and nodes unreachable from
 * the plan output are flagged as warnings.
 */
class GraphWellFormednessPass final : public VerifyPass
{
  public:
    const char *name() const override { return "graph-wellformed"; }
    void run(const VerifyContext &ctx,
             VerifyResult &result) const override;
};

/**
 * Shape and dtype flow: LUT shapes are self-consistent with the plan's
 * LUT-NN parameters and agree across each CCS->LUT producer/consumer
 * pair; transfer payloads match the shapes that feed them; host-costed
 * nodes carry consistent dtypes per kind group.
 */
class ShapeDtypeFlowPass final : public VerifyPass
{
  public:
    const char *name() const override { return "shape-dtype-flow"; }
    void run(const VerifyContext &ctx,
             VerifyResult &result) const override;
};

/**
 * Device placement legality: PIM ops sit on PIM devices only (LutOp on
 * Pim, Ccs on Host, transfers on Link), host-only plans never touch
 * Pim/Link, elementwise offload requires platform support, and every
 * Host<->Pim dependency edge is bridged by a Link transfer node
 * (elementwise endpoints excepted — their offload traffic is folded
 * into the op's bandwidth cost, paper Figure 6-(b)).
 */
class DevicePlacementPass final : public VerifyPass
{
  public:
    const char *name() const override { return "device-placement"; }
    void run(const VerifyContext &ctx,
             VerifyResult &result) const override;
};

/**
 * Per-platform capacity: every attached mapping passes the tuner's
 * structural legality (divisibility, Eq. 5 PE count, on-chip buffer
 * capacity) and its resident working set — LUT tile plus index and
 * output slices — fits the PE local memory. Skipped (with a Note)
 * when the context carries no platform.
 */
class CapacityPass final : public VerifyPass
{
  public:
    const char *name() const override { return "capacity"; }
    void run(const VerifyContext &ctx,
             VerifyResult &result) const override;
};

/**
 * Schedule-hazard analysis: every LUT operator must transitively
 * depend on the CCS node of its own (layer, role) — otherwise a
 * pipelined or overlap schedule may start the reduce before its index
 * matrix exists — and every PIM->host output transfer must directly
 * follow a PIM-side producer.
 */
class ScheduleHazardPass final : public VerifyPass
{
  public:
    const char *name() const override { return "schedule-hazard"; }
    void run(const VerifyContext &ctx,
             VerifyResult &result) const override;
};

/** An ordered pipeline of verifier passes. */
class PassManager
{
  public:
    PassManager() = default;

    void addPass(std::unique_ptr<VerifyPass> pass);

    /** The five built-in passes in dependency order. */
    static PassManager withDefaultPasses();

    std::size_t passCount() const { return passes_.size(); }

    /**
     * Runs every pass over @p plan and returns the merged
     * diagnostics. Publishes verify.* metrics (passes run,
     * diagnostics emitted, wall time) and a trace span per call.
     */
    VerifyResult run(const Plan &plan,
                     const PimPlatformConfig *platform = nullptr) const;

  private:
    std::vector<std::unique_ptr<VerifyPass>> passes_;
};

/**
 * Whether hot paths (engine cost/estimate, executors, benches) should
 * run the verifier. Defaults to on in debug builds (!NDEBUG), off in
 * release; the PIMDL_VERIFY_PLANS environment variable ("0"/"off"/
 * "false"/"no" disables, anything else enables) overrides the build
 * default, and setVerifyPlansEnabled overrides both.
 */
bool verifyPlansEnabled();

/** Process-wide runtime override of verifyPlansEnabled (thread-safe). */
void setVerifyPlansEnabled(bool enabled);

/**
 * Runs the default pass pipeline and throws std::runtime_error with a
 * diagnostic summary when any Error-severity finding is recorded.
 */
void verifyPlanOrThrow(const Plan &plan,
                       const PimPlatformConfig *platform = nullptr);

/**
 * Checks a scheduler's output against the ScheduleStep contract
 * (max(host_s, pim_s) <= total_s <= host_s + pim_s per step; step
 * totals sum to the estimate's total for step-producing policies) and
 * basic estimate sanity (finite, non-negative totals).
 */
VerifyResult verifyScheduleResult(const CostedPlan &costed,
                                  const ScheduleResult &result,
                                  SchedulePolicy policy);

/**
 * Checks a degraded-mode remap: every tile is owned by a live PE, the
 * wave count is exactly ceil(total_tiles / healthy_pes), and no
 * surviving PE is dealt more than `waves` tiles.
 */
VerifyResult verifyDegradedRemap(const LutWorkloadShape &shape,
                                 const LutMapping &mapping,
                                 const std::vector<bool> &failed,
                                 const DegradedLutRemap &remap);

/** Throws std::runtime_error naming @p what when @p result has
 * errors. */
void requireClean(const VerifyResult &result, const char *what);

} // namespace verify
} // namespace pimdl

#endif // PIMDL_VERIFY_VERIFY_H
