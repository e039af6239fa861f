/**
 * @file
 * Concurrency stress tests for the SPSC ring behind the ingest
 * front-end (common/lockfree_queue.hpp) plus single-threaded churn on
 * the event pool. Registered under the `queue-stress` ctest label: the
 * TSan CI job runs the label explicitly so the memory orderings here
 * are race-checked every PR.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/lockfree_queue.hpp"
#include "sim/event_pool.hpp"

namespace rap::sim {
namespace {

TEST(SpscQueue, SingleThreadedFifoAndBounds)
{
    SpscQueue<int> queue(8);
    EXPECT_EQ(queue.capacity(), 8u);
    int out = 0;
    EXPECT_FALSE(queue.tryPop(out));
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(queue.tryPush(std::move(i)));
    int overflow = 99;
    EXPECT_FALSE(queue.tryPush(std::move(overflow))); // full
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(queue.tryPop(out));
}

TEST(SpscQueue, TwoThreadStressKeepsFifoOrder)
{
    constexpr std::uint64_t kItems = 200000;
    SpscQueue<std::uint64_t> queue(64);
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kItems;) {
            std::uint64_t item = i;
            if (queue.tryPush(std::move(item)))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t expected = 0;
    while (expected < kItems) {
        std::uint64_t out = 0;
        if (queue.tryPop(out)) {
            ASSERT_EQ(out, expected); // strict FIFO, nothing lost
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    std::uint64_t tail = 0;
    EXPECT_FALSE(queue.tryPop(tail)); // fully drained
}

TEST(EventPool, ChurnWithRandomInterleavedLifetimes)
{
    // Mixed acquire/take/release churn with a growing-and-shrinking
    // live set: the free list, generations, and slab growth must stay
    // consistent far past several slabs of peak occupancy.
    EventPool pool;
    std::vector<EventHandle> live;
    std::uint64_t fired = 0;
    std::uint64_t acquired = 0;
    std::uint64_t lcg = 12345;
    for (int step = 0; step < 200000; ++step) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const bool grow = (lcg >> 33) % 100 <
                          (live.size() < 700 ? 60u : 40u);
        if (grow || live.empty()) {
            live.push_back(pool.acquire([&fired] { ++fired; }));
            ++acquired;
        } else {
            const std::size_t pick =
                static_cast<std::size_t>(lcg >> 13) % live.size();
            const EventHandle handle = live[pick];
            live[pick] = live.back();
            live.pop_back();
            ASSERT_TRUE(pool.valid(handle));
            if ((lcg >> 7) & 1)
                pool.take(handle)();
            else
                pool.release(handle);
            ASSERT_FALSE(pool.valid(handle));
        }
    }
    EXPECT_EQ(pool.liveNodes(), live.size());
    for (const auto &handle : live)
        pool.take(handle)();
    EXPECT_EQ(pool.liveNodes(), 0u);
    EXPECT_GT(fired, 0u);
    EXPECT_LT(pool.capacity(), 2048u); // bounded by peak, not churn
}

} // namespace
} // namespace rap::sim
