#include "lockorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

// This file is the one place in the tree allowed to use the raw std
// synchronization primitives (see scripts/lint_invariants.py): the
// tracker cannot guard itself with the annotated Mutex it instruments
// without recursing into its own hooks.

namespace pimdl {
namespace analysis {

namespace {

constexpr int kNoNode = -1;

std::string
siteString(const LockSite &site)
{
    std::ostringstream out;
    out << (site.file != nullptr ? site.file : "?") << ":" << site.line;
    return out.str();
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One registered mutex. Nodes are index-stable; freed slots are
 * recycled through a free list once the mutex is destroyed. */
struct Node
{
    const void *mu = nullptr;
    std::string name;
    /** Site of the first tracked acquisition (registration). */
    LockSite first_site;
    bool live = false;
    std::set<int> out;
    std::set<int> in;
};

/** Metadata of one (held -> acquired) order edge, kept for reports. */
struct EdgeInfo
{
    /** Where the held (from) lock had been acquired. */
    LockSite held_site;
    /** Acquisition site of the (to) lock that created the edge. */
    LockSite acq_site;
};

struct HeldEntry
{
    const void *mu = nullptr;
    int node = kNoNode;
    LockSite site;
    double acquired_at_s = 0.0;
};

/** Per-thread stack of currently held tracked locks. Release order
 * may be non-LIFO; removal searches from the top. */
thread_local std::vector<HeldEntry> t_held;

/** Re-entrancy guard: a hook that (indirectly) acquires a tracked
 * mutex while inside the tracker must not recurse. */
thread_local bool t_in_tracker = false;

struct Totals
{
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> edges_added{0};
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> self_locks{0};
    std::atomic<std::uint64_t> wait_while_holding{0};
    std::atomic<std::uint64_t> hold_budget_exceeded{0};
};

/**
 * The global lock-order graph: nodes are live mutexes, a directed
 * edge a->b means "a was held while b was acquired". Inserting an
 * edge whose reverse path already exists closes a cycle — a
 * potential ABBA deadlock — detected by DFS at insertion time (the
 * graph stays small: dozens of locks, each ordered pair recorded
 * once).
 */
class Tracker
{
  public:
    int
    registerLock(const void *mu, const char *name, LockSite site)
    {
        std::lock_guard<std::mutex> guard(mu_);
        const auto it = index_.find(mu);
        if (it != index_.end())
            return it->second;
        int id;
        if (!free_.empty()) {
            id = free_.back();
            free_.pop_back();
            nodes_[static_cast<std::size_t>(id)] = Node{};
        } else {
            id = static_cast<int>(nodes_.size());
            nodes_.emplace_back();
        }
        Node &node = nodes_[static_cast<std::size_t>(id)];
        node.mu = mu;
        node.name = (name != nullptr && name[0] != '\0')
                        ? std::string(name)
                        : std::string("<unnamed>");
        node.first_site = site;
        node.live = true;
        index_[mu] = id;
        return id;
    }

    void
    destroyLock(const void *mu)
    {
        std::lock_guard<std::mutex> guard(mu_);
        const auto it = index_.find(mu);
        if (it == index_.end())
            return;
        const int id = it->second;
        Node &node = nodes_[static_cast<std::size_t>(id)];
        for (int to : node.out) {
            nodes_[static_cast<std::size_t>(to)].in.erase(id);
            edges_.erase({id, to});
        }
        for (int from : node.in) {
            nodes_[static_cast<std::size_t>(from)].out.erase(id);
            edges_.erase({from, id});
        }
        node = Node{};
        index_.erase(it);
        free_.push_back(id);
    }

    /**
     * Records held -> acquired. Returns a rendered cycle report when
     * this edge closes a cycle (empty string otherwise). The edge is
     * inserted either way, so one inversion reports exactly once.
     */
    std::string
    addEdge(int held, int acquired, const LockSite &held_site,
            const LockSite &acq_site, std::uint64_t *edges_added)
    {
        std::lock_guard<std::mutex> guard(mu_);
        if (held == acquired)
            return std::string();
        Node &from = nodes_[static_cast<std::size_t>(held)];
        if (from.out.count(acquired) != 0)
            return std::string();
        std::string report;
        std::vector<int> path;
        if (findPathLocked(acquired, held, path))
            report = renderCycleLocked(held, acquired, held_site,
                                       acq_site, path);
        from.out.insert(acquired);
        nodes_[static_cast<std::size_t>(acquired)].in.insert(held);
        edges_[{held, acquired}] = EdgeInfo{held_site, acq_site};
        ++*edges_added;
        return report;
    }

    std::string
    lockLabel(int id)
    {
        std::lock_guard<std::mutex> guard(mu_);
        return lockLabelLocked(id);
    }

    std::uint64_t
    locksLive()
    {
        std::lock_guard<std::mutex> guard(mu_);
        return index_.size();
    }

    std::uint64_t
    edgesLive()
    {
        std::lock_guard<std::mutex> guard(mu_);
        return edges_.size();
    }

    Totals totals;

  private:
    /** DFS: is @p to reachable from @p from? Fills @p path
     * (from..to) when it is. */
    bool
    findPathLocked(int from, int to, std::vector<int> &path)
    {
        std::vector<int> stack{from};
        std::map<int, int> parent;
        parent[from] = kNoNode;
        while (!stack.empty()) {
            const int cur = stack.back();
            stack.pop_back();
            if (cur == to) {
                for (int n = to; n != kNoNode; n = parent[n])
                    path.push_back(n);
                std::reverse(path.begin(), path.end());
                return true;
            }
            for (int next : nodes_[static_cast<std::size_t>(cur)].out) {
                if (parent.count(next) == 0) {
                    parent[next] = cur;
                    stack.push_back(next);
                }
            }
        }
        return false;
    }

    std::string
    lockLabelLocked(int id)
    {
        const Node &node = nodes_[static_cast<std::size_t>(id)];
        std::ostringstream out;
        out << "\"" << node.name << "\" (" << node.mu
            << ", first acquired at " << siteString(node.first_site)
            << ")";
        return out.str();
    }

    std::string
    renderCycleLocked(int held, int acquired,
                      const LockSite &held_site,
                      const LockSite &acq_site,
                      const std::vector<int> &path)
    {
        std::ostringstream out;
        out << "potential deadlock (lock-order inversion): acquiring "
            << lockLabelLocked(acquired) << " at "
            << siteString(acq_site) << " while holding "
            << lockLabelLocked(held) << " (acquired at "
            << siteString(held_site)
            << "), but the opposite order is already established:";
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const auto it = edges_.find({path[i], path[i + 1]});
            out << "\n  " << lockLabelLocked(path[i]) << " -> "
                << lockLabelLocked(path[i + 1]);
            if (it != edges_.end())
                out << " [held at " << siteString(it->second.held_site)
                    << ", acquired at "
                    << siteString(it->second.acq_site) << "]";
        }
        return out.str();
    }

    std::mutex mu_;
    std::vector<Node> nodes_;
    std::vector<int> free_;
    std::map<const void *, int> index_;
    std::map<std::pair<int, int>, EdgeInfo> edges_;
};

/** Leaky singleton: Mutexes with static storage duration run their
 * destructor hooks during exit, after which a destroyed tracker would
 * be undefined behaviour. */
Tracker &
tracker()
{
    static Tracker *instance = new Tracker;
    return *instance;
}

std::atomic<int> g_policy_override{-1};
std::atomic<double> g_hold_budget_override{-1.0};
std::atomic<bool> g_has_handler{false};

std::mutex &
handlerMutex()
{
    static std::mutex *mu = new std::mutex;
    return *mu;
}

std::function<void(const Violation &)> &
handlerSlot()
{
    static auto *slot = new std::function<void(const Violation &)>;
    return *slot;
}

LockOrderPolicy
policyDefault()
{
    if (const char *env = std::getenv("PIMDL_DEADLOCK_POLICY")) {
        if (std::strcmp(env, "throw") == 0)
            return LockOrderPolicy::Throw;
        if (std::strcmp(env, "fatal") == 0)
            return LockOrderPolicy::Fatal;
    }
    return LockOrderPolicy::Log;
}

double
holdBudgetDefault()
{
    if (const char *env = std::getenv("PIMDL_LOCK_HOLD_BUDGET_S")) {
        char *end = nullptr;
        const double parsed = std::strtod(env, &end);
        if (end != env)
            return parsed;
    }
    return 1.0;
}

/** Counts, hands to the handler, then applies the policy. HoldBudget
 * warnings never escalate past logging. */
void
reportViolation(ViolationKind kind, std::string message)
{
    Totals &totals = tracker().totals;
    switch (kind) {
    case ViolationKind::LockOrderCycle:
        totals.cycles.fetch_add(1, std::memory_order_relaxed);
        break;
    case ViolationKind::SelfLock:
        totals.self_locks.fetch_add(1, std::memory_order_relaxed);
        break;
    case ViolationKind::WaitWhileHolding:
        totals.wait_while_holding.fetch_add(1,
                                            std::memory_order_relaxed);
        break;
    case ViolationKind::HoldBudget:
        totals.hold_budget_exceeded.fetch_add(
            1, std::memory_order_relaxed);
        break;
    }

    Violation violation{kind, std::move(message)};
    bool handled = false;
    if (g_has_handler.load(std::memory_order_acquire)) {
        std::function<void(const Violation &)> handler;
        {
            std::lock_guard<std::mutex> guard(handlerMutex());
            handler = handlerSlot();
        }
        if (handler) {
            handler(violation);
            handled = true;
        }
    }
    if (!handled)
        std::cerr << "[pimdl:lockorder] "
                  << violationKindName(violation.kind) << ": "
                  << violation.message << "\n";

    if (kind == ViolationKind::HoldBudget)
        return;
    switch (lockOrderPolicy()) {
    case LockOrderPolicy::Log:
        break;
    case LockOrderPolicy::Throw:
        throw LockOrderViolation(violation.kind, violation.message);
    case LockOrderPolicy::Fatal:
        std::cerr << "[pimdl:lockorder] fatal policy: aborting\n";
        std::abort();
    }
}

/** Pops @p mu from the held stack (top-down search); returns the
 * popped entry, or an entry with node == kNoNode when untracked. */
HeldEntry
popHeld(const void *mu)
{
    for (std::size_t i = t_held.size(); i > 0; --i) {
        if (t_held[i - 1].mu == mu) {
            HeldEntry entry = t_held[i - 1];
            t_held.erase(t_held.begin() +
                         static_cast<std::ptrdiff_t>(i - 1));
            return entry;
        }
    }
    return HeldEntry{};
}

void
checkHoldBudget(const HeldEntry &entry)
{
    const double budget = lockHoldBudgetS();
    if (budget <= 0.0 || entry.node == kNoNode)
        return;
    const double held_for = monotonicSeconds() - entry.acquired_at_s;
    if (held_for <= budget)
        return;
    std::ostringstream out;
    out << "lock " << tracker().lockLabel(entry.node)
        << " held for " << held_for << "s (budget " << budget
        << "s) since " << siteString(entry.site);
    reportViolation(ViolationKind::HoldBudget, out.str());
}

/** Shared tail of onMutexAcquire / onCondVarWaitDone: order edge from
 * the current held top, cycle check, push. */
void
pushWithEdge(const void *mu, int node, LockSite site)
{
    Totals &totals = tracker().totals;
    std::string report;
    if (!t_held.empty()) {
        const HeldEntry &top = t_held.back();
        if (top.node != kNoNode) {
            std::uint64_t added = 0;
            report = tracker().addEdge(top.node, node, top.site, site,
                                       &added);
            if (added != 0)
                totals.edges_added.fetch_add(
                    added, std::memory_order_relaxed);
        }
    }
    t_held.push_back(
        HeldEntry{mu, node, site, monotonicSeconds()});
    if (!report.empty()) {
        // The edge was recorded before reporting, so one inversion
        // reports exactly once. Under a throwing policy the caller
        // never acquires the underlying mutex — take the entry back
        // off the held stack before the exception propagates.
        try {
            reportViolation(ViolationKind::LockOrderCycle, report);
        } catch (...) {
            popHeld(mu);
            throw;
        }
    }
}

} // namespace

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
    case ViolationKind::LockOrderCycle:
        return "lock-order-cycle";
    case ViolationKind::SelfLock:
        return "self-lock";
    case ViolationKind::WaitWhileHolding:
        return "wait-while-holding";
    case ViolationKind::HoldBudget:
        return "hold-budget";
    }
    return "?";
}

namespace detail {

std::atomic<int> g_lockorder_state{-1};

int
resolveLockOrderState()
{
    int resolved;
    if (const char *env = std::getenv("PIMDL_DEADLOCK_CHECK")) {
        resolved = (std::strcmp(env, "0") == 0 ||
                    std::strcmp(env, "off") == 0 ||
                    std::strcmp(env, "false") == 0 ||
                    std::strcmp(env, "no") == 0)
                       ? 0
                       : 1;
    } else {
#ifdef NDEBUG
        resolved = 0;
#else
        resolved = 1;
#endif
    }
    int expected = -1;
    g_lockorder_state.compare_exchange_strong(
        expected, resolved, std::memory_order_relaxed);
    return g_lockorder_state.load(std::memory_order_relaxed);
}

} // namespace detail

bool
deadlockCheckEnabled()
{
    return deadlockCheckActive();
}

void
setDeadlockCheckEnabled(bool enabled)
{
    detail::g_lockorder_state.store(enabled ? 1 : 0,
                                    std::memory_order_relaxed);
}

LockOrderPolicy
lockOrderPolicy()
{
    const int override =
        g_policy_override.load(std::memory_order_relaxed);
    if (override >= 0)
        return static_cast<LockOrderPolicy>(override);
    static const LockOrderPolicy env_default = policyDefault();
    return env_default;
}

void
setLockOrderPolicy(LockOrderPolicy policy)
{
    g_policy_override.store(static_cast<int>(policy),
                            std::memory_order_relaxed);
}

double
lockHoldBudgetS()
{
    const double override =
        g_hold_budget_override.load(std::memory_order_relaxed);
    if (override >= 0.0)
        return override;
    static const double env_default = holdBudgetDefault();
    return env_default;
}

void
setLockHoldBudgetS(double seconds)
{
    g_hold_budget_override.store(seconds < 0.0 ? 0.0 : seconds,
                                 std::memory_order_relaxed);
}

void
setViolationHandler(std::function<void(const Violation &)> handler)
{
    std::lock_guard<std::mutex> guard(handlerMutex());
    handlerSlot() = std::move(handler);
    g_has_handler.store(static_cast<bool>(handlerSlot()),
                        std::memory_order_release);
}

LockOrderStats
lockOrderStats()
{
    Tracker &t = tracker();
    LockOrderStats stats;
    stats.acquisitions =
        t.totals.acquisitions.load(std::memory_order_relaxed);
    stats.edges_added =
        t.totals.edges_added.load(std::memory_order_relaxed);
    stats.cycles = t.totals.cycles.load(std::memory_order_relaxed);
    stats.self_locks =
        t.totals.self_locks.load(std::memory_order_relaxed);
    stats.wait_while_holding =
        t.totals.wait_while_holding.load(std::memory_order_relaxed);
    stats.hold_budget_exceeded =
        t.totals.hold_budget_exceeded.load(std::memory_order_relaxed);
    stats.locks_live = t.locksLive();
    stats.edges_live = t.edgesLive();
    return stats;
}

void
onMutexAcquire(const void *mu, const char *name, LockSite site)
{
    if (!deadlockCheckActive() || t_in_tracker)
        return;
    t_in_tracker = true;
    struct Guard
    {
        ~Guard() { t_in_tracker = false; }
    } guard;

    Tracker &t = tracker();
    t.totals.acquisitions.fetch_add(1, std::memory_order_relaxed);
    const int node = t.registerLock(mu, name, site);

    for (const HeldEntry &held : t_held) {
        if (held.mu == mu) {
            std::ostringstream out;
            out << "self deadlock: re-acquiring non-recursive lock "
                << t.lockLabel(node) << " at " << siteString(site)
                << "; already held since " << siteString(held.site);
            reportViolation(ViolationKind::SelfLock, out.str());
            return;
        }
    }
    pushWithEdge(mu, node, site);
}

void
onMutexAcquired(const void *mu)
{
    if (!deadlockCheckActive() || t_in_tracker)
        return;
    // Re-stamp the hold start now that the lock is actually owned, so
    // the hold budget measures ownership, not contention wait.
    for (std::size_t i = t_held.size(); i > 0; --i) {
        if (t_held[i - 1].mu == mu) {
            t_held[i - 1].acquired_at_s = monotonicSeconds();
            return;
        }
    }
}

void
onMutexTryAcquired(const void *mu, const char *name, LockSite site)
{
    if (!deadlockCheckActive() || t_in_tracker)
        return;
    t_in_tracker = true;
    struct Guard
    {
        ~Guard() { t_in_tracker = false; }
    } guard;
    Tracker &t = tracker();
    t.totals.acquisitions.fetch_add(1, std::memory_order_relaxed);
    const int node = t.registerLock(mu, name, site);
    t_held.push_back(HeldEntry{mu, node, site, monotonicSeconds()});
}

void
onMutexRelease(const void *mu)
{
    if (t_in_tracker)
        return;
    if (!deadlockCheckActive()) {
        // A lock taken while the check was on and released after it was
        // switched off must still leave the held stack, or a long-lived
        // thread (a parallelFor pool worker) that takes it again reads
        // as a self-deadlock.
        if (!t_held.empty())
            popHeld(mu);
        return;
    }
    t_in_tracker = true;
    struct Guard
    {
        ~Guard() { t_in_tracker = false; }
    } guard;
    const HeldEntry entry = popHeld(mu);
    if (entry.mu != nullptr)
        checkHoldBudget(entry);
}

void
onMutexDestroy(const void *mu)
{
    if (t_in_tracker)
        return;
    t_in_tracker = true;
    struct Guard
    {
        ~Guard() { t_in_tracker = false; }
    } guard;
    tracker().destroyLock(mu);
}

void
onCondVarWait(const void *mu, const char *cv_name, LockSite site)
{
    if (!deadlockCheckActive() || t_in_tracker)
        return;
    t_in_tracker = true;
    struct Guard
    {
        ~Guard() { t_in_tracker = false; }
    } guard;

    Tracker &t = tracker();
    for (const HeldEntry &held : t_held) {
        if (held.mu == mu || held.node == kNoNode)
            continue;
        std::ostringstream out;
        out << "waiting on CondVar \""
            << (cv_name != nullptr ? cv_name : "<unnamed>")
            << "\" at " << siteString(site) << " while still holding "
            << t.lockLabel(held.node) << " (acquired at "
            << siteString(held.site)
            << "): the held lock stays locked for the entire blocked "
               "wait";
        reportViolation(ViolationKind::WaitWhileHolding, out.str());
        break;
    }
}

} // namespace analysis
} // namespace pimdl
