/**
 * @file
 * Unit and stress tests for the deterministic thread pool, including
 * the `beside` overload the ingest pipeline stages with. Labelled
 * `thread-stress`, so the TSan CI step race-checks it explicitly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace rap {
namespace {

TEST(ThreadPool, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(ThreadPool, ZeroPicksHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const std::size_t n = 257;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, EmptyAndSingletonLoops)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, MapReturnsSubmissionOrder)
{
    ThreadPool serial(1);
    ThreadPool parallel(4);
    const std::size_t n = 101;
    const auto square = [](std::size_t i) {
        return static_cast<int>(i * i);
    };
    const auto a = serial.parallelMap<int>(n, square);
    const auto b = parallel.parallelMap<int>(n, square);
    ASSERT_EQ(a.size(), n);
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], static_cast<int>(i * i));
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        try {
            pool.parallelFor(64, [&](std::size_t i) {
                if (i % 7 == 3)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
            FAIL() << "parallelFor swallowed the exception";
        } catch (const std::runtime_error &e) {
            // First throwing index in submission order is 3.
            EXPECT_STREQ(e.what(), "task 3");
        }
    }
}

TEST(ThreadPool, UsableAfterException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8,
                     [](std::size_t) {
                         throw std::logic_error("boom");
                     }),
                 std::logic_error);
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedLoopsRunInline)
{
    ThreadPool pool(4);
    const std::size_t outer = 8;
    const std::size_t inner = 16;
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.parallelFor(outer, [&](std::size_t o) {
        // Nested call on the same pool must degrade to inline serial
        // execution instead of deadlocking on the pool's own workers.
        pool.parallelFor(inner, [&](std::size_t i) {
            hits[o * inner + i]++;
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(ThreadPool, BesideRunsOnceOnTheCallingThread)
{
    const auto caller = std::this_thread::get_id();
    for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        for (std::size_t n : {0u, 1u, 5u}) {
            int beside_calls = 0;
            std::thread::id beside_thread;
            std::vector<std::atomic<int>> hits(n);
            const auto body = [&](std::size_t i) { hits[i]++; };
            const auto beside = [&] {
                ++beside_calls;
                beside_thread = std::this_thread::get_id();
            };
            pool.parallelFor(n, body, beside);
            EXPECT_EQ(beside_calls, 1)
                << "threads=" << threads << " n=" << n;
            EXPECT_EQ(beside_thread, caller);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
    }
}

TEST(ThreadPool, SerialPoolRunsBesideFirst)
{
    ThreadPool pool(1);
    std::vector<int> order;
    const auto body = [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    };
    pool.parallelFor(5, body, [&] { order.push_back(-1); });
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
}

TEST(ThreadPool, BesideAndBodyExceptionsWaitForTheLoop)
{
    ThreadPool pool(4);
    const std::size_t n = 12;
    const auto slow_body = [](std::atomic<std::size_t> &finished,
                              std::size_t throw_at) {
        return [&finished, throw_at](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++finished;
            if (i == throw_at)
                throw std::runtime_error("task " + std::to_string(i));
        };
    };

    // beside throws at once; the loop still drains before the rethrow,
    // and beside's exception ranks ahead of every index's.
    std::atomic<std::size_t> finished{0};
    try {
        pool.parallelFor(n, slow_body(finished, 2),
                         [] { throw std::logic_error("beside"); });
        FAIL() << "parallelFor swallowed the exception";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "beside");
        EXPECT_EQ(finished.load(), n);
    }

    // A body exception is rethrown after every claimed index finished.
    finished = 0;
    try {
        pool.parallelFor(n, slow_body(finished, 0), [] {});
        FAIL() << "parallelFor swallowed the exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 0");
        EXPECT_EQ(finished.load(), n);
    }
}

TEST(ThreadPool, NestedBesideCallRunsInline)
{
    ThreadPool pool(4);
    const std::size_t outer = 8;
    const std::size_t inner = 6;
    std::vector<std::atomic<int>> hits(outer * inner);
    std::atomic<int> off_thread{0};
    pool.parallelFor(outer, [&](std::size_t o) {
        const auto worker = std::this_thread::get_id();
        int beside_calls = 0;
        const auto body = [&](std::size_t i) {
            if (std::this_thread::get_id() != worker)
                ++off_thread;
            hits[o * inner + i]++;
        };
        const auto beside = [&] {
            if (std::this_thread::get_id() != worker)
                ++off_thread;
            ++beside_calls;
        };
        pool.parallelFor(inner, body, beside);
        EXPECT_EQ(beside_calls, 1);
    });
    EXPECT_EQ(off_thread.load(), 0);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(ThreadPoolStress, ManyBatchesStayConsistent)
{
    ThreadPool pool(4);
    for (std::size_t n : {1u, 2u, 3u, 17u, 64u, 255u, 1024u}) {
        for (int round = 0; round < 50; ++round) {
            const auto out = pool.parallelMap<std::size_t>(
                n, [](std::size_t i) { return i + 1; });
            const std::size_t sum =
                std::accumulate(out.begin(), out.end(),
                                std::size_t{0});
            EXPECT_EQ(sum, n * (n + 1) / 2) << "n=" << n;
        }
    }
}

TEST(ThreadPoolStress, InterleavedWorkAndExceptions)
{
    ThreadPool pool(4);
    for (int round = 0; round < 100; ++round) {
        if (round % 3 == 0) {
            EXPECT_THROW(
                pool.parallelFor(32,
                                 [&](std::size_t i) {
                                     if (i == 31)
                                         throw std::runtime_error(
                                             "tail");
                                 }),
                std::runtime_error);
        } else {
            std::atomic<int> count{0};
            pool.parallelFor(32, [&](std::size_t) { count++; });
            EXPECT_EQ(count.load(), 32);
        }
    }
}

} // namespace
} // namespace rap
