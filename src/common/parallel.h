/**
 * @file
 * Minimal data-parallel loop helper.
 *
 * The functional PE simulator executes thousands of independent micro-
 * kernels; parallelFor shards them across hardware threads. On single-core
 * hosts it degrades gracefully to a serial loop.
 *
 * Shards run on one persistent pool of parallelWorkerCount() - 1
 * workers, started by the first multi-shard call (they inherit that
 * caller's CPU affinity), plus the calling thread, which claims shards
 * of its own call too. So a body may itself call parallelFor, and any
 * number of threads may call at once: every call finishes even when
 * all workers are busy. No lock is held while a body runs.
 */

#ifndef PIMDL_COMMON_PARALLEL_H
#define PIMDL_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>

namespace pimdl {

/** Returns the worker count used by parallelFor (>= 1): the
 * hardware thread count, read once per process. */
std::size_t parallelWorkerCount();

/**
 * Invokes @p body(i) for every i in [0, count), sharding contiguous index
 * ranges across worker threads. The body must be safe to run concurrently
 * for distinct indices. Exceptions thrown by the body are rethrown on the
 * calling thread after every shard has finished.
 */
void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)> &body);

/**
 * Invokes @p body(begin, end) over disjoint contiguous ranges covering
 * [0, count), each at least @p grain indices long (except possibly the
 * final range). One std::function call per block instead of per index:
 * SIMD micro-kernels iterating rows inside the block amortize the
 * dispatch overhead and keep their working set contiguous. A grain of
 * 0 is treated as 1. The ranges depend only on @p count, @p grain and
 * parallelWorkerCount(): with g = ceil(count / grain) grains and w
 * workers, one range [0, count) on the caller when min(w, g) <= 1,
 * else ranges of ceil(g / min(g, 4 * w)) whole grains each (the last
 * one shorter), at most 4 * w of them. The caller and the pool's
 * workers claim ranges one at a time, so which thread runs a range is
 * not fixed: a body's result must not depend on it. Exceptions are
 * rethrown after every range has finished.
 */
void parallelForBlocked(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)> &body);

} // namespace pimdl

#endif // PIMDL_COMMON_PARALLEL_H
