/** @file Tests for common utilities: logging, tables, parallel. */

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lockorder.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "common/thread_annotations.h"

namespace pimdl {
namespace {

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatalError("bad config"), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panicError("bug"), std::logic_error);
}

TEST(Logging, RequireMacro)
{
    EXPECT_NO_THROW(PIMDL_REQUIRE(true, "fine"));
    EXPECT_THROW(PIMDL_REQUIRE(false, "nope"), std::runtime_error);
}

TEST(Table, AlignsColumnsAndFormats)
{
    TablePrinter table({"Name", "Value"});
    table.addRow({"alpha", TablePrinter::fmt(1.23456, 2)});
    table.addRow({"b", TablePrinter::fmtRatio(2.5)});
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("1.23"), std::string::npos);
    EXPECT_NE(out.find("2.50x"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow)
{
    TablePrinter table({"A", "B"});
    EXPECT_THROW(table.addRow({"only-one"}), std::runtime_error);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, [&](std::size_t i) { hits[i]++; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, PropagatesExceptions)
{
    EXPECT_THROW(parallelFor(100,
                             [](std::size_t i) {
                                 if (i == 57)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(Parallel, ZeroCountIsNoOp)
{
    bool ran = false;
    parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelBlocked, CoversEveryIndexExactlyOnce)
{
    for (std::size_t grain : {1u, 7u, 16u, 100u}) {
        std::vector<std::atomic<int>> hits(1000);
        parallelForBlocked(1000, grain,
                           [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i)
                                   hits[i]++;
                           });
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "grain=" << grain;
    }
}

TEST(ParallelBlocked, BlocksAlignToGrain)
{
    // Every block starts on a grain boundary, and only the final block
    // may be shorter than the grain.
    const std::size_t count = 103;
    const std::size_t grain = 8;
    Mutex mu{"test.common.blocks"};
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    parallelForBlocked(count, grain,
                       [&](std::size_t begin, std::size_t end) {
                           MutexLock lock(mu);
                           blocks.emplace_back(begin, end);
                       });
    for (const auto &block : blocks) {
        EXPECT_EQ(block.first % grain, 0u);
        EXPECT_GT(block.second, block.first);
        if (block.second != count) {
            EXPECT_EQ((block.second - block.first) % grain, 0u);
        }
    }
}

TEST(ParallelBlocked, GrainLargerThanCountRunsSingleBlock)
{
    int calls = 0;
    parallelForBlocked(5, 100, [&](std::size_t begin, std::size_t end) {
        ++calls;
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 5u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelBlocked, ZeroGrainBehavesAsOne)
{
    std::vector<std::atomic<int>> hits(64);
    parallelForBlocked(64, 0, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            hits[i]++;
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelBlocked, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelForBlocked(100, 4,
                           [](std::size_t begin, std::size_t end) {
                               if (begin <= 56 && 56 < end)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

TEST(ParallelBlocked, ShardsDependOnlyOnCountGrainWorkers)
{
    // Two calls with the same (count, grain) on the same pool cut the
    // same ranges, however the threads claim them: at most 4 * workers
    // ranges, each whole grains starting on a grain boundary, all but
    // the last of one length, together covering [0, count).
    const std::size_t workers = parallelWorkerCount();
    const auto ranges = [](std::size_t count, std::size_t grain) {
        Mutex mu{"test.parallel.ranges"};
        std::vector<std::pair<std::size_t, std::size_t>> seen;
        parallelForBlocked(count, grain,
                           [&](std::size_t begin, std::size_t end) {
                               MutexLock lock(mu);
                               seen.emplace_back(begin, end);
                           });
        std::sort(seen.begin(), seen.end());
        return seen;
    };
    for (const auto &[count, grain] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {7, 3}, {64, 1}, {100, 4}, {1000, 7}, {1024, 64},
             {4096, 1}, {5, 100}}) {
        const auto first = ranges(count, grain);
        EXPECT_EQ(ranges(count, grain), first)
            << "count=" << count << " grain=" << grain;
        ASSERT_FALSE(first.empty());
        EXPECT_LE(first.size(), std::max<std::size_t>(1, 4 * workers));
        const std::size_t len = first.front().second;
        std::size_t next = 0;
        for (std::size_t i = 0; i < first.size(); ++i) {
            const auto [begin, end] = first[i];
            EXPECT_EQ(begin, next) << "count=" << count;
            EXPECT_EQ(begin % grain, 0u) << "count=" << count;
            if (i + 1 < first.size()) {
                EXPECT_EQ(end - begin, len) << "count=" << count;
                EXPECT_EQ(len % grain, 0u) << "count=" << count;
            }
            next = end;
        }
        EXPECT_EQ(next, count);
        // The length follows from (count, grain, workers) alone:
        // ceil(g / min(g, 4w)) grains, or all of [0, count) inline.
        const std::size_t grains = (count + grain - 1) / grain;
        const std::size_t cap = std::min(grains, 4 * workers);
        const std::size_t want = std::min(workers, grains) <= 1
                                     ? count
                                     : (grains + cap - 1) / cap * grain;
        EXPECT_EQ(len, std::min(want, count))
            << "count=" << count << " grain=" << grain;
    }
}

TEST(ParallelPool, ConcurrentCallersEachCoverEveryIndexOnce)
{
    // Eight threads share the pool at once, each with its own calls;
    // every index of every call runs exactly once.
    constexpr std::size_t kCallers = 8;
    constexpr std::size_t kCalls = 20;
    constexpr std::size_t kCount = 517;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &h : hits)
        h = std::vector<std::atomic<int>>(kCalls * kCount);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&hits, c] {
            for (std::size_t call = 0; call < kCalls; ++call) {
                parallelForBlocked(
                    kCount, 1 + call % 7,
                    [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                            hits[c][call * kCount + i]++;
                    });
            }
        });
    }
    for (auto &t : callers)
        t.join();
    for (const auto &h : hits) {
        for (const auto &x : h)
            ASSERT_EQ(x.load(), 1);
    }
}

TEST(ParallelPool, NestedCallInsideBody)
{
    // Every outer shard calls parallelFor itself; the inner calls
    // finish even while every worker is busy with an outer shard.
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 300;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallelFor(kOuter, [&](std::size_t o) {
        parallelFor(kInner,
                    [&](std::size_t i) { hits[o * kInner + i]++; });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelPool, ThrowIsRethrownAfterEveryShardFinishes)
{
    // The shard holding index 0 throws; the call rethrows only once
    // every other shard has run to its end, and the pool serves the
    // next call as usual. 8 * w one-index grains make 4 * w shards of
    // two indices each (one inline range on a single worker).
    const std::size_t count = 8 * parallelWorkerCount();
    std::atomic<std::size_t> finished{0};
    EXPECT_THROW(parallelForBlocked(
                     count, 1,
                     [&](std::size_t begin, std::size_t end) {
                         if (begin == 0)
                             throw std::runtime_error("boom");
                         finished += end - begin;
                     }),
                 std::runtime_error);
    const std::size_t shard = parallelWorkerCount() == 1 ? count : 2;
    EXPECT_EQ(finished.load(), count - shard);

    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelPool, BodyLockRecordsNoEdgeFromPoolLock)
{
    // Under the lock-order detector with the fatal policy, a body that
    // takes a named Mutex adds no order edge: the pool holds none of
    // its locks while a body runs, so no parallel.pool -> body edge
    // exists to close a cycle later.
    const bool prev_enabled = analysis::deadlockCheckEnabled();
    const analysis::LockOrderPolicy prev_policy =
        analysis::lockOrderPolicy();
    analysis::setDeadlockCheckEnabled(true);
    analysis::setLockOrderPolicy(analysis::LockOrderPolicy::Fatal);
    {
        Mutex body_mu{"test.parallel.body"};
        std::size_t sum = 0;
        const analysis::LockOrderStats before = analysis::lockOrderStats();
        for (int call = 0; call < 10; ++call) {
            parallelFor(64, [&](std::size_t i) {
                MutexLock lock(body_mu);
                sum += i;
            });
        }
        const analysis::LockOrderStats after = analysis::lockOrderStats();
        EXPECT_EQ(sum, 10u * (64u * 63u / 2u));
        EXPECT_GT(after.acquisitions, before.acquisitions);
        EXPECT_EQ(after.edges_added, before.edges_added);
        EXPECT_EQ(after.cycles, before.cycles);
        EXPECT_EQ(after.wait_while_holding, before.wait_while_holding);
    }
    analysis::setLockOrderPolicy(prev_policy);
    analysis::setDeadlockCheckEnabled(prev_enabled);
}

} // namespace
} // namespace pimdl
