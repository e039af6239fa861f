/**
 * @file
 * Tests for the partitioned (conservative parallel) DES engine:
 * hand-computed lookahead-window timelines, the cross-zone contract,
 * and byte-identical execution at any worker count — on random event
 * soups and on a real 8-device cluster workload.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/kernel.hpp"

namespace rap::sim {
namespace {

/** (zone-local) record of one executed event. */
using ZoneLog = std::vector<std::pair<double, int>>;

TEST(EngineParallel, HandComputedTwoZoneTimeline)
{
    // lookahead 1.0: window 1 opens at T_min=0.5 and runs everything
    // below 1.5 in both zones; the cross-zone send from A lands at
    // 1.6, alone in window 2.
    Engine engine;
    engine.configureZones(2, 1.0, 1);
    std::vector<ZoneLog> log(2);
    auto record = [&] {
        log[static_cast<std::size_t>(engine.currentZone())]
            .emplace_back(engine.now(), engine.currentZone());
    };
    engine.schedule(0.5, 0, [&] {
        record();
        engine.scheduleAfter(0.4, record);        // zone 0, t=0.9
        engine.schedule(1.6, 1, record);          // cross, window 2
    });
    engine.schedule(0.7, 1, record);
    engine.run();

    ASSERT_EQ(log[0].size(), 2u);
    EXPECT_DOUBLE_EQ(log[0][0].first, 0.5);
    EXPECT_DOUBLE_EQ(log[0][1].first, 0.9);
    ASSERT_EQ(log[1].size(), 2u);
    EXPECT_DOUBLE_EQ(log[1][0].first, 0.7);
    EXPECT_DOUBLE_EQ(log[1][1].first, 1.6);
    EXPECT_DOUBLE_EQ(engine.now(), 1.6); // frontier = max zone clock
    EXPECT_EQ(engine.eventsExecuted(), 4u);
    EXPECT_EQ(engine.crossZoneEvents(), 1u);
    EXPECT_EQ(engine.windowsExecuted(), 2u);
}

TEST(EngineParallel, CrossZoneAtExactlyTheLookaheadIsAllowed)
{
    Engine engine;
    engine.configureZones(2, 1.0);
    int fired = 0;
    engine.schedule(0.5, 0, [&] {
        engine.schedule(1.5, 1, [&] { ++fired; }); // == now + lookahead
    });
    engine.run();
    EXPECT_EQ(fired, 1);
}

TEST(EngineParallelDeath, CrossZoneBelowLookaheadPanics)
{
    Engine engine;
    engine.configureZones(2, 1.0);
    engine.schedule(0.5, 0, [&] {
        engine.schedule(1.0, 1, [] {}); // only 0.5 ahead
    });
    EXPECT_DEATH(engine.run(), "lookahead");
}

TEST(EngineParallelDeath, RepartitioningAfterSchedulingPanics)
{
    Engine engine;
    engine.schedule(1.0, [] {});
    EXPECT_DEATH(engine.configureZones(2, 1.0), "before scheduling");
}

TEST(EngineParallelDeath, RunUntilRejectsMultiZone)
{
    Engine engine;
    engine.configureZones(2, 1.0);
    EXPECT_DEATH(engine.runUntil(1.0), "single-zone");
}

TEST(EngineParallel, FullInboxOverflowsLosslesslyAndInOrder)
{
    // 500 same-instant sends into one zone: far beyond the bounded
    // inbox, exercising the overflow path. Delivery must be complete
    // and ordered by source sequence (send order).
    Engine engine;
    engine.configureZones(2, 1.0, 2);
    std::vector<int> arrivals;
    engine.schedule(0.5, 0, [&] {
        for (int i = 0; i < 500; ++i) {
            engine.schedule(1.5, 1,
                            [&arrivals, i] { arrivals.push_back(i); });
        }
    });
    engine.run();
    ASSERT_EQ(arrivals.size(), 500u);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(arrivals[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(engine.crossZoneEvents(), 500u);
}

/**
 * PHOLD-style random event soup over @p zones zones: chains carry
 * their Rng by value, bounce between zones at or above the lookahead,
 * and log (time, hop) per zone. The log is a complete serialisation of
 * each zone's execution, so equality across job counts is equality of
 * simulation behaviour.
 */
struct Soup
{
    Engine engine;
    std::vector<ZoneLog> log;
    double lookahead = 1e-3;

    explicit Soup(int zones, int jobs)
    {
        engine.configureZones(zones, lookahead, jobs);
        log.resize(static_cast<std::size_t>(zones));
        for (int z = 0; z < zones; ++z) {
            for (int c = 0; c < 3; ++c) {
                Rng rng(static_cast<std::uint64_t>(z) * 97u +
                        static_cast<std::uint64_t>(c) + 1u);
                const double start = rng.uniform(0.0, 2e-3);
                engine.schedule(
                    start, z, [this, rng, hops = 40]() mutable {
                        step(std::move(rng), hops);
                    });
            }
        }
        engine.run();
    }

    void
    step(Rng rng, int hops)
    {
        const int zone = engine.currentZone();
        log[static_cast<std::size_t>(zone)].emplace_back(engine.now(),
                                                         hops);
        if (hops <= 0)
            return;
        const double delta = rng.uniform(0.0, 3e-3);
        if (rng.bernoulli(0.4)) { // stay local, any future delta
            engine.scheduleAfter(
                delta, [this, rng, hops = hops - 1]() mutable {
                    step(std::move(rng), hops);
                });
            return;
        }
        const int next = static_cast<int>(
            rng.uniformInt(0, engine.zoneCount() - 1));
        engine.schedule(engine.now() + lookahead + delta, next,
                        [this, rng, hops = hops - 1]() mutable {
                            step(std::move(rng), hops);
                        });
    }
};

TEST(EngineParallel, RandomSoupIsIdenticalAtAnyJobCount)
{
    Soup serial(8, 1);
    for (const int jobs : {2, 4, 8}) {
        Soup parallel(8, jobs);
        ASSERT_EQ(parallel.log, serial.log) << "jobs=" << jobs;
        EXPECT_EQ(parallel.engine.eventsExecuted(),
                  serial.engine.eventsExecuted());
        EXPECT_EQ(parallel.engine.crossZoneEvents(),
                  serial.engine.crossZoneEvents());
        EXPECT_EQ(parallel.engine.windowsExecuted(),
                  serial.engine.windowsExecuted());
        EXPECT_DOUBLE_EQ(parallel.engine.now(), serial.engine.now());
    }
    // The soup actually exercised the machinery.
    EXPECT_GT(serial.engine.crossZoneEvents(), 100u);
    EXPECT_GT(serial.engine.windowsExecuted(), 10u);
}

/**
 * Run a small migrating-kernel workload on a real 8-device cluster
 * partitioned one zone per device; @return per-device retired-kernel
 * counts plus the final clock.
 */
std::pair<std::vector<std::uint64_t>, double>
runClusterWorkload(int jobs)
{
    auto spec = dgxA100Spec(8);
    spec.nvlinkLatency = 20e-6;
    spec.pcieLatency = 30e-6;
    Cluster cluster(spec);
    cluster.partitionZones(0, jobs);
    std::vector<Stream *> streams;
    for (int d = 0; d < cluster.gpuCount(); ++d)
        streams.push_back(&cluster.device(d).newStream("s"));

    struct Driver
    {
        Cluster &cluster;
        std::vector<Stream *> &streams;
        Seconds hop;

        void
        step(int dev, Rng rng, int hops)
        {
            const Seconds latency = rng.uniform(15e-6, 60e-6);
            cluster.device(dev).launchKernel(
                *streams[static_cast<std::size_t>(dev)],
                KernelDesc::synthetic("k", latency, {0.1, 0.1}),
                [this, dev, rng, hops]() mutable {
                    if (hops <= 0)
                        return;
                    const int next = static_cast<int>(
                        rng.uniformInt(0, cluster.gpuCount() - 2));
                    const int nbr = next >= dev ? next + 1 : next;
                    auto &engine = cluster.engine();
                    engine.schedule(engine.now() + hop,
                                    cluster.deviceZone(nbr),
                                    [this, nbr, rng,
                                     hops = hops - 1]() mutable {
                                        step(nbr, std::move(rng), hops);
                                    });
                });
        }
    };
    Driver driver{cluster, streams, spec.nvlinkLatency};
    for (int d = 0; d < cluster.gpuCount(); ++d) {
        cluster.engine().schedule(
            1e-6 * (d + 1), cluster.deviceZone(d),
            [&driver, d] { driver.step(d, Rng(7u + d), 12); });
    }
    cluster.run();

    std::vector<std::uint64_t> retired;
    for (int d = 0; d < cluster.gpuCount(); ++d)
        retired.push_back(cluster.device(d).kernelsRetired());
    return {retired, cluster.engine().now()};
}

TEST(EngineParallel, ClusterWorkloadIsIdenticalAtAnyJobCount)
{
    const auto serial = runClusterWorkload(1);
    std::uint64_t total = 0;
    for (const auto count : serial.first)
        total += count;
    EXPECT_EQ(total, 8u * 13u); // every chain ran all its kernels
    for (const int jobs : {2, 4}) {
        const auto parallel = runClusterWorkload(jobs);
        EXPECT_EQ(parallel.first, serial.first) << "jobs=" << jobs;
        EXPECT_DOUBLE_EQ(parallel.second, serial.second)
            << "jobs=" << jobs;
    }
}

} // namespace
} // namespace rap::sim
