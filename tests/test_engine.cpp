/**
 * @file
 * Unit tests for the discrete-event engine, its re-armable timers and
 * SimEvent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "allocation_counter.hpp"
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
    const std::uint64_t before = test::gAllocations.load();
    round();
    const std::uint64_t allocations = test::gAllocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(fired, 2000u);
}

TEST(EngineTimer, RearmingReplacesThePendingFiring)
{
    Engine engine;
    std::vector<Seconds> fired;
    const TimerId timer =
        engine.addTimer([&] { fired.push_back(engine.now()); });
    engine.arm(timer, 1.0);
    engine.arm(timer, 2.0); // later: the 1.0 firing is gone
    engine.run();
    engine.arm(timer, 5.0);
    engine.arm(timer, 3.0); // earlier: the 5.0 firing is gone
    engine.run();
    EXPECT_EQ(fired, (std::vector<Seconds>{2.0, 3.0}));
    EXPECT_EQ(engine.eventsExecuted(), 2u);
    EXPECT_EQ(engine.maxQueueDepth(), 1u);
}

TEST(EngineTimer, TiesWithScheduledEventsFollowArmingOrder)
{
    // Arming takes a sequence number as schedule() does, so at one
    // instant the timer fires after what was scheduled before it was
    // armed and before what was scheduled after.
    Engine engine;
    std::vector<int> order;
    const TimerId timer = engine.addTimer([&] { order.push_back(0); });
    engine.schedule(1.0, [&] { order.push_back(1); });
    engine.arm(timer, 1.0);
    engine.schedule(1.0, [&] { order.push_back(2); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));

    // Re-arming at the same instant moves the timer behind events
    // scheduled in between.
    order.clear();
    engine.arm(timer, 2.0);
    engine.schedule(2.0, [&] { order.push_back(1); });
    engine.arm(timer, 2.0);
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0}));
    EXPECT_EQ(engine.maxQueueDepth(), 3u);
}

TEST(EngineTimer, EarliestOfSeveralTimersFiresFirst)
{
    Engine engine;
    std::vector<int> order;
    const TimerId a = engine.addTimer([&] { order.push_back(0); });
    const TimerId b = engine.addTimer([&] { order.push_back(1); });
    const TimerId c = engine.addTimer([&] { order.push_back(2); });
    engine.arm(a, 3.0);
    engine.arm(b, 1.0);
    engine.arm(c, 2.0);
    engine.arm(b, 4.0); // the earliest moves later: c takes over
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

TEST(EngineTimer, DisarmCancelsTheFiring)
{
    Engine engine;
    int fired = 0;
    const TimerId timer = engine.addTimer([&] { ++fired; });
    engine.arm(timer, 1.0);
    engine.schedule(0.5, [&] { engine.disarm(timer); });
    engine.run();
    engine.disarm(timer); // disarming a disarmed timer is a no-op
    engine.run();
    EXPECT_EQ(fired, 0);
    EXPECT_DOUBLE_EQ(engine.now(), 0.5);
    EXPECT_EQ(engine.eventsExecuted(), 1u);
}

TEST(EngineTimer, CallbackMayRearmItsOwnTimer)
{
    Engine engine;
    std::vector<Seconds> fired;
    TimerId timer = 0;
    timer = engine.addTimer([&] {
        fired.push_back(engine.now());
        if (fired.size() < 3)
            engine.arm(timer, engine.now() + 1.0);
    });
    engine.arm(timer, 1.0);
    engine.run();
    EXPECT_EQ(fired, (std::vector<Seconds>{1.0, 2.0, 3.0}));
    EXPECT_EQ(engine.eventsExecuted(), 3u);
}

TEST(EngineTimer, TimerAtInfinityNeverFires)
{
    Engine engine;
    int fired = 0;
    const TimerId timer = engine.addTimer([&] { ++fired; });
    engine.arm(timer, std::numeric_limits<Seconds>::infinity());
    engine.schedule(1.0, [&] { ++fired; });
    engine.run();
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(engine.now(), 1.0);
    EXPECT_EQ(engine.eventsExecuted(), 1u);
}

TEST(EngineDeath, ArmingInThePastPanics)
{
    Engine engine;
    const TimerId timer = engine.addTimer([] {});
    engine.schedule(2.0, [] {});
    engine.run();
    EXPECT_DEATH(engine.arm(timer, 1.0), "past");
}

TEST(EngineDeath, AddingATimerWhileRunningPanics)
{
    Engine engine;
    engine.schedule(1.0, [&] { engine.addTimer([] {}); });
    EXPECT_DEATH(engine.run(), "before Engine::run");
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
