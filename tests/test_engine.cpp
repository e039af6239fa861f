/**
 * @file
 * Unit tests for the discrete-event engine and SimEvent.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "sim/engine.hpp"

namespace {

/** Every allocation this binary makes through operator new. */
std::atomic<std::uint64_t> gAllocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// GCC flags free() on what it knows came from operator new; here the
// replacement operator new above allocated it with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace rap::sim {
namespace {

TEST(Engine, StartsAtZero)
{
    Engine engine;
    EXPECT_DOUBLE_EQ(engine.now(), 0.0);
    EXPECT_EQ(engine.eventsExecuted(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(2.0, [&] { order.push_back(2); });
    engine.schedule(1.0, [&] { order.push_back(1); });
    engine.schedule(3.0, [&] { order.push_back(3); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(engine.now(), 3.0);
    EXPECT_EQ(engine.eventsExecuted(), 3u);
}

TEST(Engine, TiesBreakBySchedulingOrder)
{
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        engine.schedule(1.0, [&order, i] { order.push_back(i); });
    engine.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleMoreEvents)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1.0, [&] {
        ++fired;
        engine.scheduleAfter(0.5, [&] { ++fired; });
    });
    engine.run();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(engine.now(), 1.5);
}

TEST(Engine, EventAtInfinityNeverFires)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1.0, [&] { ++fired; });
    engine.schedule(std::numeric_limits<Seconds>::infinity(),
                    [&] { ++fired; });
    engine.run();
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(engine.now(), 1.0);
    EXPECT_EQ(engine.eventsExecuted(), 1u);
}

TEST(Engine, SteadyStateChurnAllocatesNothing)
{
    // Once a round has sized the heap and the callback slots, a round
    // of small-capture events allocates nothing, including the events
    // that callbacks schedule into the slot just freed.
    Engine engine;
    std::uint64_t fired = 0;
    auto round = [&] {
        for (int i = 0; i < 500; ++i) {
            engine.scheduleAfter(1e-6 * (i % 7), [&engine, &fired] {
                ++fired;
                engine.scheduleAfter(0.0, [&fired] { ++fired; });
            });
        }
        engine.run();
    };
    round();
    const std::uint64_t before = gAllocations.load();
    round();
    const std::uint64_t allocations = gAllocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(fired, 2000u);
}

TEST(EngineDeath, SchedulingInThePastPanics)
{
    Engine engine;
    engine.schedule(2.0, [] {});
    engine.run();
    EXPECT_DEATH(engine.schedule(1.0, [] {}), "past");
}

TEST(EngineDeath, RunIsNotReentrant)
{
    Engine engine;
    engine.schedule(1.0, [&] { engine.run(); });
    EXPECT_DEATH(engine.run(), "not reentrant");
}

TEST(SimEvent, FireReleasesWaiters)
{
    Engine engine;
    auto event = makeEvent();
    int released = 0;
    event->addWaiter(engine, [&] { ++released; });
    event->addWaiter(engine, [&] { ++released; });
    EXPECT_FALSE(event->fired());
    engine.schedule(3.0, [&] { event->fire(engine); });
    engine.run();
    EXPECT_TRUE(event->fired());
    EXPECT_DOUBLE_EQ(event->fireTime(), 3.0);
    EXPECT_EQ(released, 2);
}

TEST(SimEvent, LateWaiterPassesThrough)
{
    Engine engine;
    auto event = makeEvent();
    engine.schedule(1.0, [&] { event->fire(engine); });
    engine.run();
    int released = 0;
    event->addWaiter(engine, [&] { ++released; });
    engine.run();
    EXPECT_EQ(released, 1);
}

TEST(SimEvent, DoubleFireIsIdempotent)
{
    Engine engine;
    auto event = makeEvent();
    engine.schedule(1.0, [&] { event->fire(engine); });
    engine.schedule(2.0, [&] { event->fire(engine); });
    engine.run();
    EXPECT_DOUBLE_EQ(event->fireTime(), 1.0);
}

} // namespace
} // namespace rap::sim
