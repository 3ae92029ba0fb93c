/**
 * @file
 * Lock-order analysis tests: a seeded ABBA inversion must be reported
 * deterministically in one run — no hang, no lucky interleaving —
 * naming both mutexes and both acquisition sites; plus self-lock,
 * wait-while-holding, hold-budget warnings, tryLock semantics, the
 * enable switch, and a multi-threaded stress run that must stay free
 * of false positives.
 */

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lockorder.h"
#include "common/thread_annotations.h"

#if defined(__SANITIZE_THREAD__)
#define PIMDL_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIMDL_TEST_TSAN 1
#endif
#endif

#if defined(PIMDL_TEST_TSAN)
/**
 * ThreadSanitizer's own deadlock detector reports the lock-order
 * inversions these tests plant on purpose, and under halt_on_error=1
 * that kills the test before it can check the project's detector.
 * Only deadlock reports whose stacks pass through this file are
 * suppressed: race detection stays on, and an inversion anywhere else
 * in the binary is still reported.
 */
extern "C" const char *
__tsan_default_suppressions()
{
    return "deadlock:test_deadlock.cc\n";
}
#endif

namespace pimdl {
namespace {

/**
 * Forces the detector on with a capturing violation handler and the
 * Log policy, and restores every global knob afterwards so the rest of
 * the suite runs under whatever PIMDL_DEADLOCK_CHECK selected.
 */
class LockOrderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prev_enabled_ = analysis::deadlockCheckEnabled();
        prev_policy_ = analysis::lockOrderPolicy();
        prev_budget_ = analysis::lockHoldBudgetS();
        analysis::setDeadlockCheckEnabled(true);
        analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Log);
        // The handler runs inside the tracker's re-entrancy guard, so
        // the capture mutex below is itself untracked — no feedback.
        analysis::setViolationHandler(
            [this](const analysis::Violation &violation) {
                MutexLock lock(capture_mu_);
                captured_.push_back(violation);
            });
    }

    void
    TearDown() override
    {
        analysis::setViolationHandler(nullptr);
        analysis::setLockOrderPolicy(prev_policy_);
        analysis::setLockHoldBudgetS(prev_budget_);
        analysis::setDeadlockCheckEnabled(prev_enabled_);
    }

    std::vector<analysis::Violation>
    captured(analysis::ViolationKind kind)
    {
        MutexLock lock(capture_mu_);
        std::vector<analysis::Violation> out;
        for (const analysis::Violation &violation : captured_)
            if (violation.kind == kind)
                out.push_back(violation);
        return out;
    }

  private:
    bool prev_enabled_ = false;
    analysis::LockOrderPolicy prev_policy_ =
        analysis::LockOrderPolicy::Log;
    double prev_budget_ = 0.0;

    Mutex capture_mu_{"test.deadlock.capture"};
    std::vector<analysis::Violation> captured_
        PIMDL_GUARDED_BY(capture_mu_);
};

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/** The flagship acceptance test: two threads exercise A->B then B->A
 * with NO temporal overlap — the schedule that never hangs and that a
 * hang-based detector can never catch — and the inversion is still
 * reported, exactly once, naming both mutexes and both acquisition
 * sites. */
TEST_F(LockOrderTest, AbbaInversionReportedDeterministically)
{
    const analysis::LockOrderStats before = analysis::lockOrderStats();
    Mutex a{"test.deadlock.A"};
    Mutex b{"test.deadlock.B"};

    std::thread first([&] {
        MutexLock la(a);
        MutexLock lb(b);
    });
    first.join();

    std::thread second([&] {
        MutexLock lb(b);
        MutexLock la(a); // closes the cycle: reported right here
    });
    second.join();

    const std::vector<analysis::Violation> cycles =
        captured(analysis::ViolationKind::LockOrderCycle);
    ASSERT_EQ(cycles.size(), 1u);
    const std::string &message = cycles[0].message;
    EXPECT_NE(message.find("test.deadlock.A"), std::string::npos)
        << message;
    EXPECT_NE(message.find("test.deadlock.B"), std::string::npos)
        << message;
    // Both acquisition sites live in this file; the report names the
    // held-at and acquired-at site of every edge in the cycle.
    EXPECT_GE(countOccurrences(message, "test_deadlock.cc"), 2u)
        << message;

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.cycles - before.cycles, 1u);

    // The same inversion again: the (held, acquired) pair is already
    // an edge, so it reports exactly once, not once per exercise.
    std::thread third([&] {
        MutexLock lb(b);
        MutexLock la(a);
    });
    third.join();
    EXPECT_EQ(captured(analysis::ViolationKind::LockOrderCycle).size(),
              1u);
}

/** A three-lock cycle (A->B, B->C, then C->A) is also caught at the
 * closing edge, and the report names all three mutexes. */
TEST_F(LockOrderTest, ThreeLockCycleReported)
{
    Mutex a{"test.deadlock.ring1"};
    Mutex b{"test.deadlock.ring2"};
    Mutex c{"test.deadlock.ring3"};

    {
        MutexLock la(a);
        MutexLock lb(b);
    }
    {
        MutexLock lb(b);
        MutexLock lc(c);
    }
    {
        MutexLock lc(c);
        MutexLock la(a); // C -> A closes the ring
    }

    const std::vector<analysis::Violation> cycles =
        captured(analysis::ViolationKind::LockOrderCycle);
    ASSERT_EQ(cycles.size(), 1u);
    const std::string &message = cycles[0].message;
    EXPECT_NE(message.find("test.deadlock.ring1"), std::string::npos);
    EXPECT_NE(message.find("test.deadlock.ring2"), std::string::npos);
    EXPECT_NE(message.find("test.deadlock.ring3"), std::string::npos);
}

/** Double-acquires a mutex the static analysis would reject; the
 * runtime check throws before the second lock() blocks. */
void
acquireAgain(Mutex &mu) PIMDL_NO_THREAD_SAFETY_ANALYSIS
{
    mu.lock();
    mu.unlock();
}

TEST_F(LockOrderTest, SelfLockThrowsInsteadOfHanging)
{
    analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Throw);
    const analysis::LockOrderStats before = analysis::lockOrderStats();

    Mutex mu{"test.deadlock.self"};
    MutexLock lock(mu);
    try {
        acquireAgain(mu);
        FAIL() << "self-lock was not reported";
    } catch (const analysis::LockOrderViolation &violation) {
        EXPECT_EQ(violation.kind(), analysis::ViolationKind::SelfLock);
        EXPECT_NE(std::string(violation.what()).find(
                      "test.deadlock.self"),
                  std::string::npos)
            << violation.what();
    }

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.self_locks - before.self_locks, 1u);
}

/** Under the Throw policy a seeded inversion surfaces as a catchable
 * exception from the acquiring thread — the mode the CI sweep and the
 * other tests in this file rely on to never hang. */
TEST_F(LockOrderTest, InversionThrowsUnderThrowPolicy)
{
    analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Throw);

    Mutex a{"test.deadlock.throwA"};
    Mutex b{"test.deadlock.throwB"};
    {
        MutexLock la(a);
        MutexLock lb(b);
    }

    MutexLock lb(b);
    try {
        MutexLock la(a);
        FAIL() << "inversion was not reported";
    } catch (const analysis::LockOrderViolation &violation) {
        EXPECT_EQ(violation.kind(),
                  analysis::ViolationKind::LockOrderCycle);
    }
}

TEST_F(LockOrderTest, ConsistentOrderIsClean)
{
    const analysis::LockOrderStats before = analysis::lockOrderStats();

    Mutex outer{"test.deadlock.outer"};
    Mutex inner{"test.deadlock.inner"};
    for (int i = 0; i < 100; ++i) {
        MutexLock lo(outer);
        MutexLock li(inner);
    }

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.cycles, before.cycles);
    EXPECT_EQ(after.self_locks, before.self_locks);
    EXPECT_TRUE(
        captured(analysis::ViolationKind::LockOrderCycle).empty());
    // The repeated pair contributes exactly one edge, not one per
    // acquisition.
    EXPECT_EQ(after.edges_added - before.edges_added, 1u);
}

/** Many threads hammering a consistent three-level hierarchy plus a
 * disjoint pair must produce zero reports: the detector's value
 * depends on inversions being the ONLY thing it fires on. */
TEST_F(LockOrderTest, MultiThreadedStressNoFalsePositives)
{
    const analysis::LockOrderStats before = analysis::lockOrderStats();

    Mutex l1{"test.deadlock.level1"};
    Mutex l2{"test.deadlock.level2"};
    Mutex l3{"test.deadlock.level3"};
    Mutex other{"test.deadlock.disjoint"};

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                {
                    MutexLock a(l1);
                    MutexLock b(l2);
                    MutexLock c(l3);
                }
                {
                    MutexLock d(other);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.cycles, before.cycles);
    EXPECT_EQ(after.self_locks, before.self_locks);
    EXPECT_TRUE(
        captured(analysis::ViolationKind::LockOrderCycle).empty());
    EXPECT_GE(after.acquisitions - before.acquisitions, 4u * 500u * 4u);
}

TEST_F(LockOrderTest, DisableSwitchMakesHooksInert)
{
    analysis::setDeadlockCheckEnabled(false);
    const analysis::LockOrderStats before = analysis::lockOrderStats();

    Mutex a{"test.deadlock.offA"};
    Mutex b{"test.deadlock.offB"};
    {
        MutexLock la(a);
        MutexLock lb(b);
    }
    {
        MutexLock lb(b);
        MutexLock la(a); // inverted, but nobody is watching
    }

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.acquisitions, before.acquisitions);
    EXPECT_EQ(after.cycles, before.cycles);
    EXPECT_TRUE(
        captured(analysis::ViolationKind::LockOrderCycle).empty());

    analysis::setDeadlockCheckEnabled(true);
    EXPECT_TRUE(analysis::deadlockCheckEnabled());
}

/** A lock taken while the check is on and released after it is
 * switched off still leaves the held stack, so a long-lived thread (a
 * parallelFor pool worker) that takes it again is no self-lock. */
TEST_F(LockOrderTest, ReleaseWhileDisabledLeavesNoStaleEntry)
{
    Mutex mu{"test.deadlock.toggle"};
    const analysis::LockOrderStats before = analysis::lockOrderStats();
    mu.lock();
    analysis::setDeadlockCheckEnabled(false);
    mu.unlock();
    analysis::setDeadlockCheckEnabled(true);
    {
        MutexLock lock(mu);
    }
    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.self_locks, before.self_locks);
    EXPECT_TRUE(captured(analysis::ViolationKind::SelfLock).empty());
}

/** Blocking on a CondVar while a DIFFERENT mutex stays held keeps that
 * mutex locked for the whole wait — a stall the order graph cannot
 * represent, caught by the dedicated CondVar hook. */
TEST_F(LockOrderTest, WaitWhileHoldingAnotherMutexReported)
{
    const analysis::LockOrderStats before = analysis::lockOrderStats();

    Mutex held{"test.deadlock.held_across_wait"};
    Mutex wait_mu{"test.deadlock.wait_mu"};
    CondVar cv{"test.deadlock.cv"};

    {
        MutexLock lh(held);
        MutexLock lw(wait_mu);
        cv.waitFor(wait_mu, std::chrono::milliseconds(1));
    }

    const std::vector<analysis::Violation> waits =
        captured(analysis::ViolationKind::WaitWhileHolding);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_NE(waits[0].message.find("test.deadlock.cv"),
              std::string::npos)
        << waits[0].message;
    EXPECT_NE(
        waits[0].message.find("test.deadlock.held_across_wait"),
        std::string::npos)
        << waits[0].message;

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_EQ(after.wait_while_holding - before.wait_while_holding, 1u);

    // Waiting while holding only the waited-on mutex is the normal,
    // clean pattern.
    {
        MutexLock lw(wait_mu);
        cv.waitFor(wait_mu, std::chrono::milliseconds(1));
    }
    EXPECT_EQ(captured(analysis::ViolationKind::WaitWhileHolding).size(),
              1u);
}

/** The hold budget is a warning, never an escalation: even under the
 * Fatal-adjacent Throw policy an over-budget hold only counts and
 * reports. */
TEST_F(LockOrderTest, HoldBudgetWarnsButNeverThrows)
{
    analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Throw);
    analysis::setLockHoldBudgetS(1e-9);
    const analysis::LockOrderStats before = analysis::lockOrderStats();

    Mutex mu{"test.deadlock.budget"};
    {
        MutexLock lock(mu);
        std::atomic<int> spin{0};
        while (spin.load() < 1000)
            spin.fetch_add(1);
    } // releases over budget; must not throw

    const analysis::LockOrderStats after = analysis::lockOrderStats();
    EXPECT_GE(after.hold_budget_exceeded - before.hold_budget_exceeded,
              1u);
    const std::vector<analysis::Violation> warnings =
        captured(analysis::ViolationKind::HoldBudget);
    ASSERT_GE(warnings.size(), 1u);
    EXPECT_NE(warnings[0].message.find("test.deadlock.budget"),
              std::string::npos)
        << warnings[0].message;
}

/** The static analysis cannot follow a tryLock result through gtest's
 * assertion plumbing, so the conditional acquire/release pair lives in
 * an opted-out helper. */
bool
tryLockAndUnlock(Mutex &mu) PIMDL_NO_THREAD_SAFETY_ANALYSIS
{
    if (!mu.tryLock())
        return false;
    mu.unlock();
    return true;
}

/** tryLock cannot block, so a successful tryLock in inverted order is
 * NOT a potential deadlock and must not add order edges. */
TEST_F(LockOrderTest, TryLockAddsNoOrderEdges)
{
    analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Throw);

    Mutex a{"test.deadlock.tryA"};
    Mutex b{"test.deadlock.tryB"};
    {
        MutexLock la(a);
        MutexLock lb(b);
    }

    {
        MutexLock lb(b);
        EXPECT_TRUE(tryLockAndUnlock(a)); // inverted, but non-blocking
    }
    EXPECT_TRUE(
        captured(analysis::ViolationKind::LockOrderCycle).empty());
}

/** Destroying a mutex retires its node and edges, so a new mutex that
 * reuses the address cannot inherit a stale order. */
TEST_F(LockOrderTest, DestroyedMutexDoesNotLeakOrder)
{
    analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Throw);
    Mutex a{"test.deadlock.stableA"};

    {
        Mutex b{"test.deadlock.shortlived"};
        MutexLock la(a);
        MutexLock lb(b);
    } // b destroyed; the a->b edge must die with it

    Mutex c{"test.deadlock.reincarnated"};
    {
        MutexLock lc(c);
        MutexLock la(a); // would close a cycle iff a stale edge survived
    }
    EXPECT_TRUE(
        captured(analysis::ViolationKind::LockOrderCycle).empty());
}

} // namespace
} // namespace pimdl
