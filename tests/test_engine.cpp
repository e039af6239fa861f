/**
 * @file
 * Unit tests for the discrete-event engine and SimEvent.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

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

TEST(Engine, RunUntilStopsAtDeadline)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1.0, [&] { ++fired; });
    engine.schedule(5.0, [&] { ++fired; });
    engine.runUntil(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(engine.now(), 2.0);
    engine.run();
    EXPECT_EQ(fired, 2);
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
    Engine run_engine;
    run_engine.schedule(1.0, [&] { run_engine.run(); });
    EXPECT_DEATH(run_engine.run(), "not reentrant");

    Engine until_engine;
    until_engine.schedule(1.0, [&] { until_engine.runUntil(2.0); });
    EXPECT_DEATH(until_engine.run(), "not reentrant");
}

TEST(SimEvent, FireReleasesWaiters)
{
    Engine engine;
    auto event = makeEvent("e");
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
    auto event = makeEvent("e");
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
    auto event = makeEvent("e");
    engine.schedule(1.0, [&] { event->fire(engine); });
    engine.schedule(2.0, [&] { event->fire(engine); });
    engine.run();
    EXPECT_DOUBLE_EQ(event->fireTime(), 1.0);
}

} // namespace
} // namespace rap::sim
