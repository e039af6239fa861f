/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring for the
 * streaming ingest front-end (src/ingest).
 *
 * SpscQueue is the classic Lamport ring: wait-free on both sides; one
 * producer thread, one consumer thread, nothing shared but the two
 * indices. It is fixed-capacity (power of two) and fails the push
 * when full, so the caller owns the overflow policy. The ingest
 * stager k-way-merges its per-stream rings on the event key, which
 * gives a stable order across producers.
 */

#ifndef RAP_COMMON_LOCKFREE_QUEUE_HPP
#define RAP_COMMON_LOCKFREE_QUEUE_HPP

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace rap {

/** @return True when @p n is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/**
 * Bounded single-producer/single-consumer ring buffer.
 *
 * Exactly one thread may call tryPush and exactly one thread may call
 * tryPop; the two may run concurrently. Elements move through the
 * ring in FIFO order.
 */
template <typename T>
class SpscQueue
{
  public:
    /** @param capacity Slot count; must be a power of two. */
    explicit SpscQueue(std::size_t capacity)
        : slots_(capacity), mask_(capacity - 1)
    {
        RAP_ASSERT(isPowerOfTwo(capacity),
                   "SPSC capacity must be a power of two, got ",
                   capacity);
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /** @return False when the ring is full (item untouched). */
    bool
    tryPush(T &&item)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        if (head - tail > mask_)
            return false; // full
        slots_[head & mask_] = std::move(item);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /** @return False when the ring is empty. */
    bool
    tryPop(T &out)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t head = head_.load(std::memory_order_acquire);
        if (tail == head)
            return false; // empty
        out = std::move(slots_[tail & mask_]);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** @return Approximate occupancy (exact when quiescent). */
    std::size_t
    size() const
    {
        return head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire);
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_;
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
};

} // namespace rap

#endif // RAP_COMMON_LOCKFREE_QUEUE_HPP
