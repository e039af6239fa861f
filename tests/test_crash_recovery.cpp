/**
 * @file
 * End-to-end fail-stop crash/recovery tests (slow tier): device
 * crash semantics in the DES, seeded crash-trace determinism, the
 * pipeline's composed recovery reports, the Young-Daly acceptance
 * claim (strictly beats both no-checkpoint and a naive fixed
 * interval under the same crash trace) and recovery observability.
 * The analytic composer's
 * unit timelines live in test_checkpoint (fast tier).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/pipeline.hpp"
#include "core/run_request.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"

namespace rap {
namespace {

TEST(DeviceCrash, InFlightKernelIsDiscardedAndNeverCompletes)
{
    // Kernel resident at 4us with 100us of work; the device dies at
    // 50us. The completion callback must never fire and the engine
    // must still drain (a crashed GPU stalls, not hangs, the run).
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::deviceCrash(0, 50e-6));
    sim::Cluster cluster(sim::dgxA100Spec(1));
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    bool completed = false;
    stream.pushKernel(sim::KernelDesc::synthetic("k", 100e-6, {0.5, 0.1}),
                      [&] { completed = true; });
    cluster.run();

    EXPECT_FALSE(completed);
    EXPECT_FALSE(cluster.device(0).isOnline());
    EXPECT_EQ(cluster.device(0).discardedKernels(), 1u);
}

TEST(DeviceCrash, QueuedWorkBehindTheCrashNeverRuns)
{
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::deviceCrash(0, 50e-6));
    sim::Cluster cluster(sim::dgxA100Spec(1));
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    int completions = 0;
    for (int i = 0; i < 4; ++i) {
        stream.pushKernel(
            sim::KernelDesc::synthetic("k", 100e-6, {0.5, 0.1}),
            [&] { ++completions; });
    }
    cluster.run();
    EXPECT_EQ(completions, 0);
}

TEST(DeviceCrash, OnlyTheCrashedGpuGoesOffline)
{
    sim::FaultSpec spec;
    spec.events.push_back(sim::FaultEvent::deviceCrash(1, 10e-6));
    sim::Cluster cluster(sim::dgxA100Spec(2));
    sim::FaultInjector injector(spec);
    injector.arm(cluster);

    auto &stream = cluster.device(0).newStream("s");
    bool completed = false;
    stream.pushKernel(sim::KernelDesc::synthetic("k", 100e-6, {0.5, 0.1}),
                      [&] { completed = true; });
    cluster.run();

    EXPECT_TRUE(completed);
    EXPECT_TRUE(cluster.device(0).isOnline());
    EXPECT_FALSE(cluster.device(1).isOnline());
}

TEST(CrashTrace, SeededTraceIsDeterministicSortedAndBounded)
{
    const auto a = sim::makeCrashTrace(60.0, 11, 480.0, 4);
    const auto b = sim::makeCrashTrace(60.0, 11, 480.0, 4);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    Seconds prev = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].device, b[i].device);
        EXPECT_EQ(a[i].kind, sim::FaultKind::DeviceCrash);
        EXPECT_GE(a[i].time, prev);
        EXPECT_LE(a[i].time, 480.0);
        EXPECT_GE(a[i].device, 0);
        EXPECT_LT(a[i].device, 4);
        prev = a[i].time;
    }

    const auto c = sim::makeCrashTrace(60.0, 12, 480.0, 4);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = c[i].time != a[i].time || c[i].device != a[i].device;
    EXPECT_TRUE(differs)
        << "distinct seeds should draw a different crash trace";
}

/** Bench-like tiny crash workload; @p mode picks the arm. */
core::SystemConfig
crashConfig(core::CheckpointMode mode)
{
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 4;
    config.iterations = 24;
    config.warmup = 3;
    config.checkpoint.mode = mode;
    config.checkpoint.interval =
        mode == core::CheckpointMode::FixedInterval ? 1 : 0;
    config.checkpoint.mtbf = 60.0;
    config.checkpoint.restartOverhead = 2.0;
    config.checkpoint.jobIterations = 20000;
    sim::FaultSpec faults;
    faults.events = sim::makeCrashTrace(60.0, 1, 480.0, 4);
    config.faults = faults;
    return config;
}

TEST(CrashRecovery, ComposedReportAccountsTheCrashes)
{
    const auto plan = preproc::makePlan(0);
    auto config = crashConfig(core::CheckpointMode::FixedInterval);
    config.checkpoint.interval = 500;
    const auto report = core::RunRequest(config).run(plan);

    EXPECT_GE(report.recoveries, 1);
    EXPECT_GT(report.lostWork, 0.0);
    EXPECT_GT(report.checkpointOverhead, 0.0);

    auto healthy = config;
    healthy.faults.reset();
    const auto baseline = core::RunRequest(healthy).run(plan);
    EXPECT_EQ(baseline.recoveries, 0);
    EXPECT_DOUBLE_EQ(baseline.lostWork, 0.0);
    EXPECT_GT(report.makespan, baseline.makespan)
        << "crashes must cost wall-clock time";
}

TEST(CrashRecovery, YoungDalyBeatsNoneAndNaiveFixedInterval)
{
    const auto plan = preproc::makePlan(0);
    const auto none =
        core::RunRequest(crashConfig(core::CheckpointMode::None))
            .run(plan);
    const auto fixed =
        core::RunRequest(crashConfig(core::CheckpointMode::FixedInterval))
            .run(plan);
    const auto yd =
        core::RunRequest(crashConfig(core::CheckpointMode::YoungDaly))
            .run(plan);

    // The acceptance claim: under the same seeded crash trace the
    // Young-Daly interval strictly beats both never checkpointing
    // (pays replayed work) and checkpointing every iteration (pays
    // overhead every step).
    EXPECT_LT(yd.makespan, none.makespan);
    EXPECT_LT(yd.makespan, fixed.makespan);
    EXPECT_GT(none.lostWork, yd.lostWork);
    EXPECT_GT(fixed.checkpointOverhead, yd.checkpointOverhead);
    EXPECT_GE(yd.recoveries, 1);
}

TEST(CrashRecovery, CountersAndRecoverySpansReachTheRegistry)
{
    const auto plan = preproc::makePlan(0);
    auto config = crashConfig(core::CheckpointMode::YoungDaly);
    obs::MetricRegistry registry;
    config.metrics = &registry;
    const auto report = core::RunRequest(config).run(plan);
    ASSERT_GE(report.recoveries, 1);

    std::uint64_t checkpoints = 0;
    std::uint64_t lost_batches = 0;
    for (const auto &[key, counter] : registry.counters()) {
        if (key.first == "train.checkpoints")
            checkpoints += counter->value();
        else if (key.first == "train.lost_batches")
            lost_batches += counter->value();
    }
    EXPECT_GT(checkpoints, 0u);
    EXPECT_GT(lost_batches, 0u);

    const auto spans = registry.spanRecords();
    const auto recoveries = std::count_if(
        spans.begin(), spans.end(),
        [](const auto &span) { return span.name == "train.recovery"; });
    EXPECT_EQ(recoveries, report.recoveries);
}

} // namespace
} // namespace rap
