/**
 * @file
 * A fixed-size task pool with a deterministic parallel-for/map API.
 *
 * Its users run independent units side by side: bench sweep points
 * (`--jobs`), the fleet scheduler's reference simulations and the
 * ingest producers. Reports must not depend on the thread count:
 * serial and parallel runs of the same configuration must be
 * bit-identical. The pool guarantees this by construction — every
 * task writes into its own submission-indexed slot and reductions
 * happen on the calling thread in submission order, so the
 * interleaving of workers is never observable as long as the tasks
 * themselves are independent.
 *
 * Determinism contract:
 *  - parallelMap returns results in submission (index) order;
 *  - exceptions are delivered as the serial loop would deliver the
 *    first one: the lowest-index exception is rethrown (later tasks
 *    may still have run, unlike the serial loop — tasks must not rely
 *    on earlier indices having failed);
 *  - nested parallelFor calls on the same pool degrade to serial
 *    inline execution on the worker thread, which keeps the pool
 *    deadlock-free without a work-stealing scheduler;
 *  - the `beside` overload runs its serial task on the calling thread
 *    only, so state that must stay on one thread (the ingest stager)
 *    can overlap a loop.
 */

#ifndef RAP_COMMON_THREAD_POOL_HPP
#define RAP_COMMON_THREAD_POOL_HPP

#include <cstddef>
#include <functional>
#include <vector>

namespace rap {

/**
 * Fixed-size worker pool executing index-space loops.
 *
 * A pool of size 1 (or a null pool pointer at call sites that take
 * one) never spawns threads and runs every loop inline — the serial
 * reference behaviour the determinism tests compare against.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 picks hardwareThreads(). A value
     *        of 1 creates no threads (inline execution).
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return Worker count this pool was sized to. */
    int threadCount() const { return threadCount_; }

    /** @return The hardware concurrency (at least 1). */
    static int hardwareThreads();

    /**
     * Run @p body(i) for every i in [0, n), blocking until all
     * complete. The calling thread participates. If any task throws,
     * the exception of the lowest index is rethrown after the loop
     * drains.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Run @p beside once on the calling thread while the workers run
     * @p body(i) for i in [0, n); the caller then joins the loop and
     * returns once every index has finished. This is how a serial
     * stage overlaps a parallel one without leaving the thread that
     * owns its state. A serial pool (or a nested call) runs @p beside
     * first, then the indices inline. An exception from @p beside
     * ranks before every index's: it is rethrown, after the loop
     * drains, ahead of the lowest-index one.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     const std::function<void()> &beside);

    /**
     * Map [0, n) through @p body and return the results in index
     * order, independent of execution interleaving.
     */
    template <typename R>
    std::vector<R>
    parallelMap(std::size_t n,
                const std::function<R(std::size_t)> &body)
    {
        std::vector<R> results(n);
        parallelFor(n, [&](std::size_t i) { results[i] = body(i); });
        return results;
    }

  private:
    struct Batch;
    struct State;

    void workerLoop();

    int threadCount_ = 1;
    State *state_ = nullptr; // pimpl: keeps <thread> out of the header
};

/**
 * Run @p body(i) for every i in [0, n) on @p pool, or inline in index
 * order when @p pool is null: the one loop for call sites whose pool
 * is optional.
 */
inline void
parallelFor(ThreadPool *pool, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (pool == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    pool->parallelFor(n, body);
}

} // namespace rap

#endif // RAP_COMMON_THREAD_POOL_HPP
