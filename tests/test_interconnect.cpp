/**
 * @file
 * Tests for link servers and synchronised collectives.
 */

#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/interconnect.hpp"

namespace rap::sim {
namespace {

TEST(LinkServer, SingleTransferTiming)
{
    Engine engine;
    LinkServer link(engine, 100e9, 5e-6);
    Seconds end = -1.0;
    link.submit(100e9 * 2e-3, [&] { end = engine.now(); }); // 2ms payload
    engine.run();
    EXPECT_NEAR(end, 2e-3 + 5e-6, 1e-9);
    EXPECT_DOUBLE_EQ(link.totalBytes(), 100e9 * 2e-3);
}

TEST(LinkServer, TransfersQueueFifo)
{
    Engine engine;
    LinkServer link(engine, 1e9, 1e-6);
    std::vector<Seconds> ends;
    for (int i = 0; i < 3; ++i)
        link.submit(1e9 * 1e-3, [&] { ends.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_NEAR(ends[0], 1e-3 + 1e-6, 1e-9);
    EXPECT_NEAR(ends[1], 2e-3 + 2e-6, 1e-9);
    EXPECT_NEAR(ends[2], 3e-3 + 3e-6, 1e-9);
}

TEST(LinkServer, ZeroByteTransferCostsLatency)
{
    Engine engine;
    LinkServer link(engine, 1e9, 7e-6);
    Seconds end = -1.0;
    link.submit(0.0, [&] { end = engine.now(); });
    engine.run();
    EXPECT_NEAR(end, 7e-6, 1e-12);
}

TEST(Collective, SingleParticipantIsCheap)
{
    Engine engine;
    Collective c(engine, CollectiveKind::AllToAll, 1e9, 1, 300e9, 3e-6);
    EXPECT_NEAR(c.duration(), 3e-6, 1e-12);
}

TEST(Collective, AllToAllDurationFormula)
{
    Engine engine;
    const Bytes per_gpu = 54e6;
    Collective c(engine, CollectiveKind::AllToAll, per_gpu, 8, 300e9,
                 3e-6);
    EXPECT_NEAR(c.duration(), 3e-6 + per_gpu * 7.0 / 8.0 / 300e9, 1e-12);
}

TEST(Collective, AllReduceDurationFormula)
{
    Engine engine;
    const Bytes per_gpu = 10e6;
    Collective c(engine, CollectiveKind::AllReduce, per_gpu, 4, 300e9,
                 3e-6);
    EXPECT_NEAR(c.duration(),
                3e-6 * 3.0 + 2.0 * per_gpu * 3.0 / 4.0 / 300e9, 1e-12);
}

TEST(Collective, WaitsForAllParticipants)
{
    Engine engine;
    Collective c(engine, CollectiveKind::AllToAll, 300e9 * 1e-3, 2,
                 300e9, 0.0);
    std::vector<Seconds> ends;
    engine.schedule(1e-3, [&] {
        c.arrive([&] { ends.push_back(engine.now()); });
    });
    engine.schedule(5e-3, [&] {
        c.arrive([&] { ends.push_back(engine.now()); });
    });
    engine.run();
    ASSERT_EQ(ends.size(), 2u);
    // Starts when the last participant arrives (5ms); payload over 2
    // GPUs moves (1/2) of 1ms-equivalent bytes.
    EXPECT_NEAR(ends[0], 5e-3 + 0.5e-3, 1e-9);
    EXPECT_NEAR(ends[1], ends[0], 1e-12);
}

TEST(CollectiveDeath, OverArrivalPanics)
{
    Engine engine;
    Collective c(engine, CollectiveKind::AllToAll, 1.0, 1, 1e9, 0.0);
    c.arrive({});
    EXPECT_DEATH(c.arrive({}), "more arrivals");
}

TEST(Cluster, CollectiveSpansAllGpus)
{
    Cluster cluster(dgxA100Spec(4));
    auto coll = cluster.makeCollective(CollectiveKind::AllReduce, 1e6);
    std::vector<Seconds> ends;
    for (int g = 0; g < 4; ++g) {
        auto &stream = cluster.device(g).newStream("comm");
        stream.pushCollective(coll,
                              [&] { ends.push_back(
                                        cluster.engine().now()); });
    }
    cluster.run();
    ASSERT_EQ(ends.size(), 4u);
    for (int g = 1; g < 4; ++g)
        EXPECT_DOUBLE_EQ(ends[0], ends[static_cast<std::size_t>(g)]);
}

TEST(Cluster, SpecAccessors)
{
    Cluster cluster(dgxA100Spec(2));
    EXPECT_EQ(cluster.gpuCount(), 2);
    EXPECT_EQ(cluster.device(1).id(), 1);
    EXPECT_EQ(cluster.host().cores(), 128);
    EXPECT_DEATH((void)cluster.device(5), "out of range");
}

} // namespace
} // namespace rap::sim
