/**
 * @file
 * Unit tests for the slab-backed event allocator (sim/event_pool.hpp):
 * node reuse, generation-tagged no-ABA handles, reset semantics, and
 * long randomized churn.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_pool.hpp"

namespace rap::sim {
namespace {

TEST(EventPool, StartsEmpty)
{
    EventPool pool;
    EXPECT_EQ(pool.liveNodes(), 0u);
    EXPECT_EQ(pool.capacity(), 0u);
    EXPECT_FALSE(pool.valid(EventHandle{}));
}

TEST(EventPool, AcquireTakeRoundTrip)
{
    EventPool pool;
    int fired = 0;
    const auto handle = pool.acquire([&] { ++fired; });
    EXPECT_TRUE(pool.valid(handle));
    EXPECT_EQ(pool.liveNodes(), 1u);
    auto fn = pool.take(handle);
    EXPECT_EQ(pool.liveNodes(), 0u);
    EXPECT_FALSE(pool.valid(handle));
    fn();
    EXPECT_EQ(fired, 1);
}

TEST(EventPool, NodesAreRecycledNotGrown)
{
    EventPool pool;
    // Steady-state churn far past one slab's worth of events must
    // never materialise a second slab: one node recycles throughout.
    for (int i = 0; i < 10000; ++i) {
        const auto handle = pool.acquire([] {});
        pool.take(handle)();
    }
    EXPECT_EQ(pool.capacity(), 256u); // exactly one slab
    EXPECT_EQ(pool.liveNodes(), 0u);
}

TEST(EventPool, HandsOutAscendingIndicesWithinASlab)
{
    EventPool pool;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(pool.acquire([] {}));
    for (std::size_t i = 0; i < handles.size(); ++i)
        EXPECT_EQ(handles[i].index, i);
    for (const auto &handle : handles)
        pool.release(handle);
}

TEST(EventPool, GrowsBySlab)
{
    EventPool pool;
    std::vector<EventHandle> handles;
    std::set<std::uint32_t> indices;
    for (int i = 0; i < 300; ++i) {
        handles.push_back(pool.acquire([] {}));
        indices.insert(handles.back().index);
    }
    EXPECT_EQ(pool.capacity(), 512u); // two slabs
    EXPECT_EQ(pool.liveNodes(), 300u);
    EXPECT_EQ(indices.size(), 300u); // all distinct
    for (const auto &handle : handles)
        EXPECT_TRUE(pool.valid(handle));
}

TEST(EventPool, RecycledIndexGetsNewGeneration)
{
    EventPool pool;
    const auto first = pool.acquire([] {});
    pool.release(first);
    const auto second = pool.acquire([] {});
    // Same node recycled, but the stale handle must not alias it.
    EXPECT_EQ(second.index, first.index);
    EXPECT_NE(second.generation, first.generation);
    EXPECT_FALSE(pool.valid(first));
    EXPECT_TRUE(pool.valid(second));
    pool.release(second);
}

TEST(EventPool, ReleaseDropsTheCallback)
{
    // A cancelled event's closure (and everything it captured) must be
    // destroyed by release, not retained until the node is reused.
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    EventPool pool;
    const auto handle = pool.acquire([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired()); // alive inside the pool
    pool.release(handle);
    EXPECT_TRUE(watch.expired());
}

TEST(EventPool, ResetInvalidatesEverything)
{
    EventPool pool;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 20; ++i)
        handles.push_back(pool.acquire([] {}));
    pool.reset();
    EXPECT_EQ(pool.liveNodes(), 0u);
    EXPECT_EQ(pool.capacity(), 256u); // storage kept
    for (const auto &handle : handles)
        EXPECT_FALSE(pool.valid(handle));
    // The pool is immediately reusable.
    int fired = 0;
    const auto fresh = pool.acquire([&] { ++fired; });
    pool.take(fresh)();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(pool.capacity(), 256u);
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

TEST(EventPoolDeath, TakingAStaleHandlePanics)
{
    EventPool pool;
    const auto handle = pool.acquire([] {});
    pool.take(handle);
    EXPECT_DEATH(pool.take(handle), "stale");
}

TEST(EventPoolDeath, TakingARecycledIndexPanics)
{
    EventPool pool;
    const auto first = pool.acquire([] {});
    pool.release(first);
    const auto second = pool.acquire([] {});
    ASSERT_EQ(second.index, first.index);
    EXPECT_DEATH(pool.take(first), "stale");
}

TEST(EventPoolDeath, NullHandlePanics)
{
    EventPool pool;
    EXPECT_DEATH(pool.take(EventHandle{}), "stale or null");
}

} // namespace
} // namespace rap::sim
