#include "common/thread_pool.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/log.hpp"

namespace rap {

namespace {

/** Set while a pool worker (or a participating caller) runs tasks of
 *  the given pool; nested loops on the same pool run inline. */
thread_local const ThreadPool *current_pool = nullptr;

} // namespace

/** One parallelFor invocation: an index space claimed atomically. */
struct ThreadPool::Batch
{
    std::size_t n = 0;
    std::size_t next = 0;      // guarded by the pool mutex
    std::size_t completed = 0; // guarded by the pool mutex
    const std::function<void(std::size_t)> *body = nullptr;
    std::vector<std::exception_ptr> errors; // slot per index
};

struct ThreadPool::State
{
    std::mutex mutex;
    std::condition_variable wake; // workers: new batch or shutdown
    std::condition_variable done; // callers: batch completed
    std::deque<std::shared_ptr<Batch>> queue;
    std::vector<std::thread> workers;
    bool stop = false;
};

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads)
{
    threadCount_ = threads <= 0 ? hardwareThreads() : threads;
    if (threadCount_ == 1)
        return;
    state_ = new State();
    state_->workers.reserve(static_cast<std::size_t>(threadCount_));
    for (int t = 0; t < threadCount_; ++t)
        state_->workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (state_ == nullptr)
        return;
    {
        std::lock_guard<std::mutex> guard(state_->mutex);
        RAP_ASSERT(state_->queue.empty(),
                   "thread pool destroyed with pending batches");
        state_->stop = true;
    }
    state_->wake.notify_all();
    for (auto &worker : state_->workers)
        worker.join();
    delete state_;
}

void
ThreadPool::workerLoop()
{
    current_pool = this;
    std::unique_lock<std::mutex> lock(state_->mutex);
    for (;;) {
        state_->wake.wait(lock, [this] {
            return state_->stop || !state_->queue.empty();
        });
        if (state_->stop)
            return;
        auto batch = state_->queue.front();
        while (batch->next < batch->n) {
            const std::size_t i = batch->next++;
            lock.unlock();
            try {
                (*batch->body)(i);
            } catch (...) {
                batch->errors[i] = std::current_exception();
            }
            lock.lock();
            if (++batch->completed == batch->n)
                state_->done.notify_all();
        }
        if (!state_->queue.empty() && state_->queue.front() == batch)
            state_->queue.pop_front();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    parallelFor(n, body, {});
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        const std::function<void()> &beside)
{
    // Inline paths: empty loops, single-index loops with nothing to
    // overlap, serial pools, and nested calls from a worker of this
    // pool (blocking a worker on its own pool could deadlock once
    // every worker does it).
    if (n == 0 || (n == 1 && !beside) || state_ == nullptr ||
        current_pool == this) {
        if (beside)
            beside();
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->body = &body;
    batch->errors.resize(n);

    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->queue.push_back(batch);
    state_->wake.notify_all();

    const ThreadPool *previous_pool = current_pool;
    current_pool = this;
    std::exception_ptr beside_error;
    if (beside) {
        lock.unlock();
        try {
            beside();
        } catch (...) {
            beside_error = std::current_exception();
        }
        lock.lock();
    }

    // The caller participates until the index space is claimed, then
    // waits for stragglers.
    while (batch->next < batch->n) {
        const std::size_t i = batch->next++;
        lock.unlock();
        try {
            body(i);
        } catch (...) {
            batch->errors[i] = std::current_exception();
        }
        lock.lock();
        if (++batch->completed == batch->n)
            state_->done.notify_all();
    }
    if (!state_->queue.empty() && state_->queue.front() == batch)
        state_->queue.pop_front();
    state_->done.wait(lock, [&] { return batch->completed == batch->n; });
    current_pool = previous_pool;
    lock.unlock();

    if (beside_error)
        std::rethrow_exception(beside_error);
    for (auto &error : batch->errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace rap
