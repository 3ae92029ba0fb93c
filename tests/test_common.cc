/** @file Tests for common utilities: logging, tables, parallel. */

#include <atomic>
#include <sstream>

#include <gtest/gtest.h>

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

} // namespace
} // namespace pimdl
