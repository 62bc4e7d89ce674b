/**
 * @file
 * Bounded MPMC work queue with reject-on-full admission control.
 *
 * The serving engine's backpressure point: producers tryPush() and
 * get an immediate reject when the queue is at capacity (the caller
 * answers RequestStatus::Rejected), consumers block in pop() until an
 * item or shutdown arrives.  FIFO order is total across producers —
 * the engine relies on this for per-session ordering (a session's
 * requests are admitted under one lock, so queue order == submission
 * order == session sequence order).
 *
 * Storage is a fixed ring buffer sized at construction, so the
 * admission path (tryPush) never allocates — a property the serving
 * engine's alloc-free submit depends on.  T must therefore be
 * default-constructible and move-assignable.
 *
 * extractMatching() is the batch former's gulp primitive: it
 * removes up to N items satisfying a predicate, preserving FIFO
 * order both among the extracted items and among the survivors, and
 * optionally waits until a deadline for more matches to arrive.
 *
 * Header-only template so tests can exercise it on plain ints; the
 * engine instantiates it over move-only pending-request records.
 */

#ifndef SNAP_SERVE_REQUEST_QUEUE_HH
#define SNAP_SERVE_REQUEST_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace snap
{
namespace serve
{

template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : slots_(capacity), cap_(capacity)
    {
        snap_assert(capacity > 0, "BoundedQueue capacity 0");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Admit @p item unless the queue is full or closed.
     * @return true when enqueued; on false @p item is left unmoved,
     *         so the caller can recycle it (rejection path).
     */
    bool
    tryPush(T &item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || size_ >= cap_)
                return false;
            slots_[(head_ + size_) % cap_] = std::move(item);
            ++size_;
            ++pushes_;
            if (size_ > highWater_)
                highWater_ = size_;
        }
        // notify_all, not notify_one: a consumer parked in
        // extractMatching() may wake, find no match, and sleep again
        // — a plain pop() waiter must still learn about the item.
        notEmpty_.notify_all();
        return true;
    }

    bool
    tryPush(T &&item)
    {
        return tryPush(item);
    }

    /**
     * Blocking dequeue.  @return the next item in FIFO order, or
     * nullopt once the queue is closed and drained (consumer exit
     * signal).
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait(lock, [&] { return closed_ || size_ > 0; });
        if (size_ == 0)
            return std::nullopt;
        T item = std::move(slots_[head_]);
        head_ = (head_ + 1) % cap_;
        --size_;
        return item;
    }

    /**
     * Remove up to @p max_items queued items satisfying @p pred,
     * appending them to @p out in FIFO order; survivors keep their
     * relative FIFO order.  When fewer than @p max_items match
     * immediately, blocks until @p deadline for more matching pushes
     * (returns early when filled or the queue closes).  A deadline in
     * the past means "scan once, never wait".
     *
     * @return the number of items extracted.
     */
    template <typename Pred>
    std::size_t
    extractMatching(Pred &&pred, std::size_t max_items,
                    std::vector<T> &out,
                    std::chrono::steady_clock::time_point deadline)
    {
        std::size_t taken = 0;
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            taken += extractLocked(pred, max_items - taken, out);
            if (taken >= max_items || closed_)
                break;
            std::uint64_t seen = pushes_;
            if (!notEmpty_.wait_until(lock, deadline, [&] {
                    return closed_ || pushes_ != seen;
                }))
                break;  // deadline, and no push happened: done
        }
        return taken;
    }

    /** Stop admissions and wake every blocked consumer; already-
     *  queued items still drain. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    std::size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return size_;
    }

    std::size_t
    highWater() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return highWater_;
    }

    std::size_t capacity() const { return cap_; }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

  private:
    /** One compacting scan under mu_: move matches out, close the
     *  holes.  Two-pointer sweep over logical indices, so both the
     *  extracted and the surviving subsequences keep FIFO order. */
    template <typename Pred>
    std::size_t
    extractLocked(Pred &pred, std::size_t limit, std::vector<T> &out)
    {
        std::size_t kept = 0;
        std::size_t taken = 0;
        for (std::size_t i = 0; i < size_; ++i) {
            T &slot = slots_[(head_ + i) % cap_];
            if (taken < limit &&
                pred(static_cast<const T &>(slot))) {
                out.push_back(std::move(slot));
                ++taken;
            } else {
                if (kept != i)
                    slots_[(head_ + kept) % cap_] = std::move(slot);
                ++kept;
            }
        }
        size_ = kept;
        return taken;
    }

    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::vector<T> slots_;  // fixed ring; tryPush never allocates
    const std::size_t cap_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t pushes_ = 0;
    bool closed_ = false;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_REQUEST_QUEUE_HH
