/**
 * @file
 * Bounded multi-producer/multi-consumer FIFO queue.
 *
 * The live serving runtime's admission boundary: producers are request
 * submitters (tryPush is the admission-control edge — a full queue
 * rejects instead of buffering unboundedly), consumers are the worker
 * threads forming batches. Mutex+condvar rather than lock-free: payloads
 * are whole requests, so the critical sections are tiny relative to
 * the work each item represents, and the annotated Mutex keeps the
 * state visible to the clang thread-safety analysis and TSan.
 *
 * Shutdown semantics: close() stops producers immediately (pushes
 * fail) while consumers drain the remaining items; pop returns false
 * only once the queue is closed *and* empty, so no accepted item is
 * ever dropped by shutdown.
 */

#ifndef PIMDL_COMMON_MPMC_QUEUE_H
#define PIMDL_COMMON_MPMC_QUEUE_H

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace pimdl {

/** Bounded FIFO queue safe for N producers and M consumers. */
template <typename T>
class BoundedMpmcQueue
{
  public:
    /** Optional @p name labels this queue's lock in lock-order
     * reports; must be a static string literal. */
    explicit BoundedMpmcQueue(std::size_t capacity,
                              const char *name = "mpmc.queue")
        : capacity_(capacity), mu_(name)
    {
        PIMDL_REQUIRE(capacity > 0, "queue capacity must be positive");
    }

    BoundedMpmcQueue(const BoundedMpmcQueue &) = delete;
    BoundedMpmcQueue &operator=(const BoundedMpmcQueue &) = delete;

    /** Non-blocking push; false when the queue is full or closed. */
    bool
    tryPush(T value) PIMDL_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(value));
        }
        not_empty_.notifyOne();
        return true;
    }

    /** Blocking push; waits for space, false once the queue closes. */
    bool
    push(T value) PIMDL_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            while (!closed_ && items_.size() >= capacity_)
                not_full_.wait(mu_);
            if (closed_)
                return false;
            items_.push_back(std::move(value));
        }
        not_empty_.notifyOne();
        return true;
    }

    /** Blocking pop; false once the queue is closed and drained. */
    bool
    pop(T &out) PIMDL_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            while (items_.empty() && !closed_)
                not_empty_.wait(mu_);
            if (items_.empty())
                return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notifyOne();
        return true;
    }

    /**
     * Pop waiting at most @p timeout_s (real time) for an item. May
     * return false before the full timeout on a spurious wakeup;
     * callers poll in a loop and re-derive their own deadline, which
     * is exactly what a forming batch's max-wait loop does.
     */
    bool
    popFor(T &out, double timeout_s) PIMDL_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            if (items_.empty() && !closed_)
                (void)not_empty_.waitFor(
                    mu_, std::chrono::duration<double>(timeout_s));
            if (items_.empty())
                return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notifyOne();
        return true;
    }

    /** Non-blocking pop; false when empty. */
    bool
    tryPop(T &out) PIMDL_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            if (items_.empty())
                return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notifyOne();
        return true;
    }

    /** Rejects new pushes; pending items remain poppable (drain). */
    void
    close() PIMDL_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            closed_ = true;
        }
        not_empty_.notifyAll();
        not_full_.notifyAll();
    }

    bool
    closed() const PIMDL_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return closed_;
    }

    std::size_t
    size() const PIMDL_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return items_.size();
    }

    bool
    empty() const PIMDL_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return items_.empty();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable Mutex mu_;
    CondVar not_empty_{"mpmc.not_empty"};
    CondVar not_full_{"mpmc.not_full"};
    std::deque<T> items_ PIMDL_GUARDED_BY(mu_);
    bool closed_ PIMDL_GUARDED_BY(mu_) = false;
};

} // namespace pimdl

#endif // PIMDL_COMMON_MPMC_QUEUE_H
