/**
 * @file
 * Tests for the GPU contention model: exclusive execution, fair-share
 * and priority-class sharing, launch groups, stream semantics, and
 * the cost of the kernel path in events and allocations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "allocation_counter.hpp"
#include "sim/cluster.hpp"

namespace rap::sim {
namespace {

ClusterSpec
oneGpu()
{
    auto spec = dgxA100Spec(1);
    return spec;
}

TEST(Device, ExclusiveKernelTakesItsLatencyPlusLaunch)
{
    Cluster cluster(oneGpu());
    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushKernel(
        KernelDesc::synthetic("k", 100e-6, {0.5, 0.5}),
        [&] { end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(end, 100e-6 + cluster.spec().gpu.kernelLaunchOverhead,
                1e-9);
}

TEST(Device, StreamSerialisesKernels)
{
    Cluster cluster(oneGpu());
    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    for (int i = 0; i < 3; ++i) {
        stream.pushKernel(KernelDesc::synthetic("k", 50e-6, {0.9, 0.1}),
                          [&] { end = cluster.engine().now(); });
    }
    cluster.run();
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;
    EXPECT_NEAR(end, 3 * (50e-6 + launch), 1e-9);
}

TEST(Device, CoRunWithoutOversubscriptionIsFree)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a");
    auto &b = cluster.device(0).newStream("b", /*group=*/1);
    Seconds end_a = -1.0;
    Seconds end_b = -1.0;
    a.pushKernel(KernelDesc::synthetic("ka", 100e-6, {0.6, 0.3}),
                 [&] { end_a = cluster.engine().now(); });
    b.pushKernel(KernelDesc::synthetic("kb", 100e-6, {0.3, 0.3}),
                 [&] { end_b = cluster.engine().now(); });
    cluster.run();
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;
    EXPECT_NEAR(end_a, 100e-6 + launch, 1e-9);
    EXPECT_NEAR(end_b, 100e-6 + launch, 1e-9);
}

TEST(Device, FairShareOversubscriptionStretchesBoth)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a");
    auto &b = cluster.device(0).newStream("b", 1);
    Seconds end_a = -1.0;
    Seconds end_b = -1.0;
    // Combined SM demand 1.6: both run at rate 1/1.6 while co-resident.
    a.pushKernel(KernelDesc::synthetic("ka", 100e-6, {0.8, 0.1}),
                 [&] { end_a = cluster.engine().now(); });
    b.pushKernel(KernelDesc::synthetic("kb", 100e-6, {0.8, 0.1}),
                 [&] { end_b = cluster.engine().now(); });
    cluster.run();
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;
    // Identical kernels, same start: both finish at 160us + launch.
    EXPECT_NEAR(end_a, 160e-6 + launch, 1e-8);
    EXPECT_NEAR(end_b, 160e-6 + launch, 1e-8);
}

TEST(Device, LowPriorityYieldsToHighPriority)
{
    Cluster cluster(oneGpu());
    auto &high = cluster.device(0).newStream("high", 0, /*priority=*/0);
    auto &low = cluster.device(0).newStream("low", 1, /*priority=*/1);
    Seconds end_high = -1.0;
    Seconds end_low = -1.0;
    high.pushKernel(KernelDesc::synthetic("kh", 100e-6, {0.8, 0.1}),
                    [&] { end_high = cluster.engine().now(); });
    low.pushKernel(KernelDesc::synthetic("kl", 100e-6, {0.8, 0.1}),
                   [&] { end_low = cluster.engine().now(); });
    cluster.run();
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;
    // High-priority kernel is unaffected.
    EXPECT_NEAR(end_high, 100e-6 + launch, 1e-8);
    // Low-priority kernel ran at 0.2/0.8 = 0.25 rate while the high
    // one was resident (100us -> 25us progress), then full rate.
    EXPECT_NEAR(end_low, 100e-6 + 75e-6 + launch, 1e-8);
}

TEST(Device, BandwidthContentionIndependentOfSm)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a");
    auto &b = cluster.device(0).newStream("b", 1);
    Seconds end_a = -1.0;
    // BW oversubscribed (1.4), SM fine (0.4).
    a.pushKernel(KernelDesc::synthetic("ka", 100e-6, {0.2, 0.7}),
                 [&] { end_a = cluster.engine().now(); });
    b.pushKernel(KernelDesc::synthetic("kb", 100e-6, {0.2, 0.7}));
    cluster.run();
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;
    EXPECT_NEAR(end_a, 100e-6 / (1.0 / 1.4) + launch, 1e-8);
}

TEST(Device, LaunchGroupSerialisesLaunches)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a", /*group=*/0);
    auto &b = cluster.device(0).newStream("b", /*group=*/0);
    Seconds start_b = -1.0;
    a.pushKernel(KernelDesc::synthetic("ka", 100e-6, {0.1, 0.1}));
    b.pushKernel(KernelDesc::synthetic("kb", 100e-6, {0.1, 0.1}));
    cluster.run();
    // Second launch waited for the first launch slot: find kernel
    // records in the trace.
    const auto &kernels = cluster.device(0).trace().kernels();
    ASSERT_EQ(kernels.size(), 2u);
    const Seconds launch = cluster.spec().gpu.kernelLaunchOverhead;
    Seconds first_start = std::min(kernels[0].start, kernels[1].start);
    Seconds second_start = std::max(kernels[0].start, kernels[1].start);
    EXPECT_NEAR(first_start, launch, 1e-9);
    EXPECT_NEAR(second_start, 2 * launch, 1e-9);
    (void)start_b;
}

TEST(Device, SeparateLaunchGroupsLaunchConcurrently)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a", 0);
    auto &b = cluster.device(0).newStream("b", 1);
    a.pushKernel(KernelDesc::synthetic("ka", 100e-6, {0.1, 0.1}));
    b.pushKernel(KernelDesc::synthetic("kb", 100e-6, {0.1, 0.1}));
    cluster.run();
    const auto &kernels = cluster.device(0).trace().kernels();
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_NEAR(kernels[0].start, kernels[1].start, 1e-12);
}

TEST(Device, KernelRecordsCaptureStretch)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a");
    auto &b = cluster.device(0).newStream("b", 1);
    a.pushKernel(KernelDesc::synthetic("ka", 100e-6, {0.8, 0.1}));
    b.pushKernel(KernelDesc::synthetic("kb", 100e-6, {0.8, 0.1}));
    cluster.run();
    for (const auto &record : cluster.device(0).trace().kernels()) {
        EXPECT_NEAR(record.stretch(), 60e-6, 1e-8);
        EXPECT_NEAR(record.exclusiveLatency, 100e-6, 1e-12);
    }
}

TEST(Device, ResidentDemandTracksKernels)
{
    Cluster cluster(oneGpu());
    auto &stream = cluster.device(0).newStream("s");
    stream.pushKernel(KernelDesc::synthetic("k", 100e-6, {0.5, 0.25}));
    // Probe mid-kernel from an event of the run itself.
    std::size_t resident = 0;
    ResourceDemand demand;
    cluster.engine().schedule(50e-6, [&] {
        resident = cluster.device(0).residentCount();
        demand = cluster.device(0).residentDemand();
    });
    cluster.run();
    EXPECT_EQ(resident, 1u);
    EXPECT_DOUBLE_EQ(demand.sm, 0.5);
    EXPECT_DOUBLE_EQ(demand.bw, 0.25);
    EXPECT_EQ(cluster.device(0).residentCount(), 0u);
}

TEST(Device, KernelPathAllocatesNothing)
{
    // Once a round has sized the engine's slots and heap, the launch
    // group's buffer and the residents, launching, admitting,
    // retiring and completing kernels allocates nothing: every
    // closure on the path fits std::function's local buffer.
    constexpr int kPushes = 20;
    Cluster cluster(oneGpu());
    auto &device = cluster.device(0);
    device.trace().setRecording(false);
    auto &high = device.newStream("high", 0, /*priority=*/0);
    auto &low = device.newStream("low", 0, /*priority=*/1);
    const auto kh = std::make_shared<const KernelDesc>(
        KernelDesc::synthetic("kh", 30e-6, {0.7, 0.4}));
    const auto kl = std::make_shared<const KernelDesc>(
        KernelDesc::synthetic("kl", 20e-6, {0.6, 0.5}));
    int done = 0;
    auto push = [&] {
        for (int i = 0; i < kPushes; ++i) {
            high.pushKernel(kh, [&done] { ++done; });
            low.pushKernel(kl, [&done] { ++done; });
        }
    };
    push();
    cluster.run();
    push();
    const std::uint64_t before = test::gAllocations.load();
    cluster.run();
    const std::uint64_t allocations = test::gAllocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(done, 4 * kPushes);
    EXPECT_EQ(device.kernelsRetired(), 4u * kPushes);
}

TEST(Device, SupersededWakesNeverFire)
{
    // Each short kernel's admission and retirement moves the device's
    // next wake. A moved wake is replaced, not left to fire stale, so
    // each kernel costs exactly an admit, a wake and a completion,
    // and the queue stays shallow however many kernels overlap.
    constexpr int kShort = 50;
    Cluster cluster(oneGpu());
    auto &device = cluster.device(0);
    auto &a = device.newStream("long", 0);
    auto &b = device.newStream("short", 1);
    a.pushKernel(KernelDesc::synthetic("long", 5e-3, {0.6, 0.1}));
    const auto desc = std::make_shared<const KernelDesc>(
        KernelDesc::synthetic("short", 10e-6, {0.6, 0.1}));
    for (int i = 0; i < kShort; ++i)
        b.pushKernel(desc);
    cluster.run();
    ASSERT_EQ(device.kernelsRetired(), kShort + 1u);
    // The long kernel outlived every short one.
    EXPECT_EQ(device.trace().kernels().back().name, "long");
    EXPECT_EQ(cluster.engine().eventsExecuted(), 3u * (kShort + 1));
    EXPECT_LE(cluster.engine().maxQueueDepth(), 4u);
}

TEST(Stream, DelayOccupiesStream)
{
    Cluster cluster(oneGpu());
    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushDelay(30e-6);
    stream.pushCallback([&] { end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(end, 30e-6, 1e-12);
}

TEST(Stream, WaitBlocksUntilRecord)
{
    Cluster cluster(oneGpu());
    auto &a = cluster.device(0).newStream("a");
    auto &b = cluster.device(0).newStream("b", 1);
    auto event = makeEvent();
    Seconds end_b = -1.0;
    b.pushWait(event);
    b.pushCallback([&] { end_b = cluster.engine().now(); });
    a.pushKernel(KernelDesc::synthetic("ka", 80e-6, {0.5, 0.1}));
    a.pushRecord(event);
    cluster.run();
    EXPECT_NEAR(end_b, 80e-6 + cluster.spec().gpu.kernelLaunchOverhead,
                1e-9);
}

TEST(Stream, IdleReflectsState)
{
    Cluster cluster(oneGpu());
    auto &stream = cluster.device(0).newStream("s");
    EXPECT_TRUE(stream.idle());
    stream.pushKernel(KernelDesc::synthetic("k", 10e-6, {0.1, 0.1}));
    EXPECT_FALSE(stream.idle());
    cluster.run();
    EXPECT_TRUE(stream.idle());
    EXPECT_EQ(stream.pushedOps(), 1u);
}

TEST(Stream, SharedDescriptorRetiresOncePerPush)
{
    // One descriptor pushed N times runs N kernels, with the same
    // tallies as N pushed copies. A second stream co-runs, so the
    // kernels also contend.
    constexpr int kPushes = 5;
    const auto desc = std::make_shared<const KernelDesc>(
        KernelDesc::synthetic("k", 40e-6, {0.7, 0.4}));
    auto run = [&](bool shared) {
        auto cluster = std::make_unique<Cluster>(oneGpu());
        auto &device = cluster->device(0);
        auto &a = device.newStream("a");
        auto &b = device.newStream("b", /*group=*/1);
        for (int i = 0; i < kPushes; ++i) {
            if (shared)
                a.pushKernel(desc);
            else
                a.pushKernel(*desc);
            b.pushKernel(KernelDesc::synthetic("other", 30e-6, {0.6, 0.5}));
        }
        cluster->run();
        return cluster;
    };
    const auto shared = run(true);
    const auto copied = run(false);
    const auto &dev_shared = shared->device(0);
    const auto &dev_copied = copied->device(0);
    EXPECT_EQ(dev_shared.kernelsRetired(), 2u * kPushes);
    EXPECT_EQ(dev_shared.kernelsRetired(), dev_copied.kernelsRetired());
    EXPECT_EQ(dev_shared.kernelsLaunched(), dev_copied.kernelsLaunched());
    EXPECT_GT(dev_shared.contentionStallSeconds(), 0.0);
    EXPECT_EQ(dev_shared.contentionStallSeconds(),
              dev_copied.contentionStallSeconds());
    EXPECT_EQ(dev_shared.trace().kernels().size(), 2u * kPushes);
    EXPECT_EQ(shared->engine().now(), copied->engine().now());
    // Retired kernels release the descriptor.
    EXPECT_EQ(desc.use_count(), 1);
}

TEST(Device, CopySubmitsToLinks)
{
    Cluster cluster(oneGpu());
    auto &stream = cluster.device(0).newStream("s");
    Seconds h2d_end = -1.0;
    stream.pushCopy(CopyKind::HostToDevice, 25e9 * 1e-3, // 1ms at 25GB/s
                    [&] { h2d_end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(h2d_end, 1e-3 + cluster.spec().pcieLatency, 1e-9);
    EXPECT_GT(cluster.device(0).h2dLink().totalBytes(), 0.0);
}

} // namespace
} // namespace rap::sim
