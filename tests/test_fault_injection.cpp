/**
 * @file
 * Tests for the fault-injection subsystem (sim/fault.hpp) and the
 * online drift monitor: seeded reproducibility, the hand-computed
 * retry/backoff timeline, capacity degradation mid-kernel, link
 * slowdown, profile degradation math, and the end-to-end claim that
 * replanning strictly improves makespan under mid-run SM degradation.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/run_request.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"

namespace rap {
namespace {

sim::ClusterSpec
oneGpu()
{
    return sim::dgxA100Spec(1);
}

TEST(FaultInjector, RetryTimelineMatchesHandComputation)
{
    // launch 4us; kernel 100us; every attempt before the third fails.
    // attempt 1: resident at 4, probe 25us -> dies at 29, backoff 20
    // attempt 2: launch at 49, resident at 53, probe -> dies at 78,
    //            backoff min(40, 50) = 40
    // attempt 3: launch at 118, resident at 122, runs 100 -> 222us.
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::transientKernel(
        0, 0.0, std::numeric_limits<Seconds>::infinity(), 1.0));
    spec.retry.maxAttempts = 3;
    spec.retry.backoffBase = 20e-6;
    spec.retry.backoffCap = 50e-6;
    spec.retry.detectFraction = 0.25;

    sim::Cluster cluster(oneGpu());
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushKernel(sim::KernelDesc::synthetic("k", 100e-6, {0.5, 0.1}),
                      [&] { end = cluster.engine().now(); });
    cluster.run();

    EXPECT_NEAR(end, 222e-6, 1e-9);
    EXPECT_EQ(cluster.device(0).kernelRetries(), 2u);
    EXPECT_NEAR(cluster.device(0).retryBackoffSeconds(), 60e-6, 1e-12);
    EXPECT_EQ(injector.injectedFailures(), 2u);
}

TEST(FaultInjector, FinalAttemptAlwaysSucceeds)
{
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::transientKernel(
        0, 0.0, std::numeric_limits<Seconds>::infinity(), 1.0));
    sim::Cluster cluster(oneGpu());
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    int completed = 0;
    for (int i = 0; i < 5; ++i) {
        stream.pushKernel(
            sim::KernelDesc::synthetic("k", 50e-6, {0.5, 0.1}),
            [&] { ++completed; });
    }
    cluster.run();
    EXPECT_EQ(completed, 5);
    // Every kernel burns maxAttempts - 1 failures, never more.
    EXPECT_EQ(injector.injectedFailures(),
              5u * static_cast<unsigned>(spec.retry.maxAttempts - 1));
}

TEST(FaultInjector, SeededScheduleIsReproducible)
{
    auto run = [](std::uint64_t seed) {
        sim::FaultSpec spec;
        spec.seed = seed;
        spec.events.push_back(sim::FaultEvent::transientKernel(
            0, 0.0, std::numeric_limits<Seconds>::infinity(), 0.5));
        sim::Cluster cluster(oneGpu());
        sim::FaultInjector injector(spec);
        injector.arm(cluster);
        auto &stream = cluster.device(0).newStream("s");
        for (int i = 0; i < 32; ++i) {
            stream.pushKernel(
                sim::KernelDesc::synthetic("k", 20e-6, {0.5, 0.1}));
        }
        cluster.run();
        return std::pair<Seconds, std::uint64_t>(
            cluster.engine().now(), injector.injectedFailures());
    };
    const auto a = run(7);
    const auto b = run(7);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_GT(a.second, 0u);

    const auto c = run(8);
    EXPECT_NE(a.second, c.second) << "distinct seeds should draw a "
                                     "different failure schedule";
}

TEST(FaultInjector, OutsideWindowNothingFails)
{
    sim::FaultSpec spec;
    spec.events.push_back(
        sim::FaultEvent::transientKernel(0, 1.0, 2.0, 1.0));
    sim::Cluster cluster(oneGpu());
    sim::FaultInjector injector(spec);
    injector.arm(cluster);
    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushKernel(sim::KernelDesc::synthetic("k", 100e-6, {0.5, 0.1}),
                      [&] { end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(end, 104e-6, 1e-9);
    EXPECT_EQ(injector.injectedFailures(), 0u);
}

TEST(FaultInjector, SmDegradeMidKernelIsPiecewise)
{
    // Kernel with SM demand 1.0, 100us of work, resident at t=4us.
    // At t=54us the device drops to half capacity: 50us of work done,
    // the remaining 50us run at rate 0.5 -> finishes at 154us.
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::smDegrade(0, 54e-6, 0.5));
    sim::Cluster cluster(oneGpu());
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushKernel(sim::KernelDesc::synthetic("k", 100e-6, {1.0, 0.1}),
                      [&] { end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(end, 154e-6, 1e-9);
    EXPECT_DOUBLE_EQ(cluster.device(0).smCapacity(), 0.5);
}

TEST(FaultInjector, HbmDegradeThrottlesBandwidthBoundKernels)
{
    // BW demand 0.8 against capacity 0.4 -> rate 0.5 from the start.
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::hbmDegrade(0, 0.0, 0.4));
    sim::Cluster cluster(oneGpu());
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushKernel(sim::KernelDesc::synthetic("k", 100e-6, {0.2, 0.8}),
                      [&] { end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(end, 4e-6 + 200e-6, 1e-9);
}

TEST(FaultInjector, LinkSlowStretchesCopies)
{
    // 1ms worth of PCIe traffic at full rate takes 2ms at half rate.
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::linkSlow(
        0, sim::FaultLink::HostLink, 0.0, 0.5));
    sim::Cluster cluster(oneGpu());
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    Seconds end = -1.0;
    stream.pushDelay(10e-6); // let the fault event apply first
    stream.pushCopy(sim::CopyKind::HostToDevice, 25e9 * 1e-3,
                    [&] { end = cluster.engine().now(); });
    cluster.run();
    EXPECT_NEAR(end, 10e-6 + 2e-3 + cluster.spec().pcieLatency, 1e-9);
}

TEST(DegradeProfile, MathMatchesContentionModel)
{
    core::CapacityProfile profile;
    profile.iterationLatency = 300e-6;
    {
        core::OpCapacity op;
        op.name = "mlp";
        op.duration = 100e-6;
        op.capacity = 92e-6;
        op.leftover = {0.4, 0.8}; // SM demand 0.6
        profile.ops.push_back(op);
    }
    {
        core::OpCapacity op;
        op.name = "allreduce";
        op.comm = true;
        op.duration = 200e-6;
        op.capacity = 184e-6;
        op.leftover = {1.0, 0.9}; // no SM demand
        profile.ops.push_back(op);
    }

    const auto degraded = core::degradeProfile(profile, 0.5, 1.0);
    // mlp: rate = 0.5 / 0.6; duration and capacity stretch by 1.2;
    // leftover = capacity - demand * rate = 0.5 - 0.5 = 0.
    EXPECT_NEAR(degraded.ops[0].duration, 120e-6, 1e-12);
    EXPECT_NEAR(degraded.ops[0].capacity, 92e-6 * 1.2, 1e-12);
    EXPECT_NEAR(degraded.ops[0].leftover.sm, 0.0, 1e-12);
    // allreduce: no SM demand -> unchanged duration, leftover clamps
    // to the new envelope.
    EXPECT_NEAR(degraded.ops[1].duration, 200e-6, 1e-12);
    EXPECT_NEAR(degraded.ops[1].leftover.sm, 0.5, 1e-12);
    // Iteration latency scales with the summed op slowdown.
    EXPECT_NEAR(degraded.iterationLatency,
                300e-6 * (320.0 / 300.0), 1e-12);

    // Healthy capacities are the identity.
    const auto same = core::degradeProfile(profile, 1.0, 1.0);
    EXPECT_NEAR(same.ops[0].duration, profile.ops[0].duration, 1e-15);
    EXPECT_NEAR(same.iterationLatency, profile.iterationLatency, 1e-15);
}

TEST(OnlineReplanning, RecoversMakespanUnderSmDegradation)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 13312);

    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 8;
    config.iterations = 36;
    config.warmup = 3;

    const auto healthy = core::RunRequest(config).run(plan);
    EXPECT_EQ(healthy.replans, 0);
    EXPECT_GT(healthy.makespan, 0.0);

    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(
        0, healthy.makespan / 3.0, 0.7));
    config.faults = faults;

    config.replanOnDrift = false;
    const auto stale = core::RunRequest(config).run(plan);
    EXPECT_EQ(stale.replans, 0);
    EXPECT_GT(stale.makespan, healthy.makespan);

    config.replanOnDrift = true;
    const auto replanned = core::RunRequest(config).run(plan);
    EXPECT_GE(replanned.replans, 1);
    EXPECT_LT(replanned.makespan, stale.makespan)
        << "replanning must strictly beat the stale schedule";
    EXPECT_GT(replanned.makespan, healthy.makespan);
}

TEST(OnlineReplanning, HealthyRunNeverTriggers)
{
    const auto plan = preproc::makePlan(0);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 4;
    config.iterations = 14;
    config.warmup = 3;
    config.replanOnDrift = true;
    const auto report = core::RunRequest(config).run(plan);
    EXPECT_EQ(report.replans, 0);

    // And the monitor keeps the no-fault timeline untouched.
    config.replanOnDrift = false;
    const auto baseline = core::RunRequest(config).run(plan);
    EXPECT_DOUBLE_EQ(report.makespan, baseline.makespan);
}

TEST(OnlineReplanning, FaultStatsReachTheReport)
{
    const auto plan = preproc::makePlan(0);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 2;
    config.iterations = 8;
    config.warmup = 2;
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::transientKernel(
        -1, 0.0, std::numeric_limits<Seconds>::infinity(), 0.4));
    config.faults = faults;
    const auto report = core::RunRequest(config).run(plan);
    EXPECT_GT(report.kernelRetries, 0u);
    EXPECT_GT(report.retryBackoffSeconds, 0.0);
}

} // namespace
} // namespace rap
