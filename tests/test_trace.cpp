/**
 * @file
 * Tests for utilisation traces and window statistics.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace rap::sim {
namespace {

TEST(Trace, SegmentAveragesWeightedByLength)
{
    Trace trace;
    trace.addSegment({0.0, 1.0, 0.2, 0.8, 1});
    trace.addSegment({1.0, 3.0, 0.8, 0.2, 2});
    // Window [0, 3]: sm = (0.2*1 + 0.8*2)/3 = 0.6.
    EXPECT_NEAR(trace.avgSmUsage(0.0, 3.0), 0.6, 1e-12);
    EXPECT_NEAR(trace.avgBwUsage(0.0, 3.0), 0.4, 1e-12);
    EXPECT_NEAR(trace.busyFraction(0.0, 3.0), 1.0, 1e-12);
}

TEST(Trace, WindowClipsSegments)
{
    Trace trace;
    trace.addSegment({0.0, 2.0, 1.0, 0.0, 1});
    EXPECT_NEAR(trace.avgSmUsage(1.0, 3.0), 0.5, 1e-12);
}

TEST(Trace, GapsCountAsIdle)
{
    Trace trace;
    trace.addSegment({0.0, 1.0, 0.5, 0.5, 1});
    // [1, 2] has no segment: idle.
    EXPECT_NEAR(trace.busyFraction(0.0, 2.0), 0.5, 1e-12);
    EXPECT_NEAR(trace.avgSmUsage(0.0, 2.0), 0.25, 1e-12);
}

TEST(Trace, ZeroLengthSegmentsIgnored)
{
    Trace trace;
    trace.addSegment({1.0, 1.0, 0.9, 0.9, 1});
    EXPECT_TRUE(trace.segments().empty());
}

TEST(Trace, DisableSegmentRecording)
{
    Trace trace;
    trace.setRecording(false);
    trace.addSegment({0.0, 1.0, 0.5, 0.5, 1});
    EXPECT_TRUE(trace.segments().empty());
}

TEST(Trace, ArmedWindowEqualsIntegratingStoredSegments)
{
    // The bounds start unset and are set from the clock while segments
    // arrive, as a run's iteration spans are. Each segment reaches the
    // armed trace when its end is the current time.
    Seconds t0 = -1.0;
    Seconds t1 = -1.0;
    Trace armed;
    armed.setRecording(false);
    armed.armWindow(t0, t1);
    Trace recorded;
    auto arrive = [&](const UtilSegment &segment) {
        armed.addSegment(segment);
        recorded.addSegment(segment);
    };
    arrive({0.0, 0.3, 0.7, 0.1, 2}); // before t0 is set
    t0 = 0.4;
    arrive({0.3, 0.55, 0.3, 0.9, 1}); // straddles t0
    arrive({0.55, 0.9, 0.0, 0.0, 0}); // idle, inside the window
    arrive({0.9, 1.0, 0.1, 0.7, 3});  // inside, before t1 is set
    t1 = 1.1;
    arrive({1.0, 1.3, 0.6, 0.2, 1}); // straddles t1, after it is set
    arrive({1.3, 1.7, 0.9, 0.9, 2}); // after t1

    EXPECT_TRUE(armed.segments().empty());
    EXPECT_EQ(recorded.segments().size(), 6u);
    EXPECT_GT(armed.avgSmUsage(t0, t1), 0.0);
    EXPECT_EQ(armed.avgSmUsage(t0, t1), recorded.avgSmUsage(t0, t1));
    EXPECT_EQ(armed.avgBwUsage(t0, t1), recorded.avgBwUsage(t0, t1));
    EXPECT_EQ(armed.busyFraction(t0, t1), recorded.busyFraction(t0, t1));

    armed.clear();
    EXPECT_EQ(armed.avgSmUsage(t0, t1), 0.0);
    EXPECT_EQ(armed.busyFraction(t0, t1), 0.0);
}

TEST(TraceDeathTest, OtherWindowsNeedRecordedSegments)
{
    Seconds t0 = 0.0;
    Seconds t1 = 1.0;
    Trace trace;
    trace.setRecording(false);
    trace.armWindow(t0, t1);
    trace.addSegment({0.0, 1.0, 0.5, 0.5, 1});
    EXPECT_EQ(trace.avgSmUsage(t0, t1), 0.5);
    EXPECT_DEATH(trace.avgSmUsage(0.0, 0.5), "recorded segments");
}

TEST(Trace, KernelRecordsOffKeepDeviceTallies)
{
    // Two contending kernels, once with records and once without: the
    // device's retire count and stall time must not depend on them.
    auto run = [](bool record) {
        auto cluster = std::make_unique<Cluster>(dgxA100Spec(1));
        auto &device = cluster->device(0);
        device.trace().setRecording(record);
        device.newStream("a").pushKernel(
            KernelDesc::synthetic("k1", 100e-6, {0.8, 0.6}));
        device.newStream("b").pushKernel(
            KernelDesc::synthetic("k2", 100e-6, {0.8, 0.6}));
        cluster->run();
        return cluster;
    };
    const auto on = run(true);
    const auto off = run(false);
    const auto &dev_on = on->device(0);
    const auto &dev_off = off->device(0);
    EXPECT_EQ(dev_on.trace().kernels().size(), 2u);
    EXPECT_TRUE(dev_off.trace().kernels().empty());
    EXPECT_TRUE(dev_off.trace().segments().empty());
    EXPECT_EQ(dev_off.kernelsRetired(), 2u);
    EXPECT_GT(dev_on.contentionStallSeconds(), 0.0);
    EXPECT_EQ(dev_off.contentionStallSeconds(),
              dev_on.contentionStallSeconds());
}

TEST(Trace, ClearDropsEverything)
{
    Trace trace;
    trace.addSegment({0.0, 1.0, 0.5, 0.5, 1});
    trace.addKernel(KernelRecord{"k", "s", 0.0, 1.0, 1.0});
    trace.clear();
    EXPECT_TRUE(trace.segments().empty());
    EXPECT_TRUE(trace.kernels().empty());
}

TEST(Trace, DeviceRecordsIdleBetweenKernels)
{
    Cluster cluster(dgxA100Spec(1));
    auto &stream = cluster.device(0).newStream("s");
    stream.pushKernel(KernelDesc::synthetic("k1", 100e-6, {0.5, 0.2}));
    stream.pushDelay(100e-6);
    stream.pushKernel(KernelDesc::synthetic("k2", 100e-6, {0.5, 0.2}));
    cluster.run();
    const auto &trace = cluster.device(0).trace();
    const Seconds end = cluster.engine().now();
    // Roughly two thirds busy (two 100us kernels + 100us delay).
    EXPECT_NEAR(trace.busyFraction(0.0, end), 2.0 / 3.0, 0.1);
    EXPECT_NEAR(trace.avgSmUsage(0.0, end), 0.5 * 2.0 / 3.0, 0.05);
}

} // namespace
} // namespace rap::sim
