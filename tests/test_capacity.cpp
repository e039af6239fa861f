/**
 * @file
 * Tests for the Overlapping Capacity Estimator (§5.1).
 */

#include <gtest/gtest.h>

#include "core/capacity.hpp"
#include "preproc/plan.hpp"

namespace rap::core {
namespace {

struct Fixture
{
    explicit Fixture(int gpus = 2)
        : plan(preproc::makePlan(0)),
          clusterSpec(sim::dgxA100Spec(gpus)),
          config(dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema())),
          sharding(dlrm::EmbeddingSharding::balanced(plan.graph.schema(), gpus))
    {
    }
    preproc::PreprocPlan plan;
    sim::ClusterSpec clusterSpec;
    dlrm::DlrmConfig config;
    dlrm::EmbeddingSharding sharding;
};

TEST(CapacityEstimator, ProfilesEveryOpOnEveryGpu)
{
    Fixture f;
    OverlappingCapacityEstimator estimator(f.clusterSpec, f.config,
                                           f.sharding);
    const auto profiles = estimator.profileAll();
    ASSERT_EQ(profiles.size(), 2u);
    for (const auto &profile : profiles) {
        ASSERT_EQ(profile.ops.size(), dlrm::kTrainOpCount);
        EXPECT_GT(profile.iterationLatency, 0.0);
        for (const auto &op : profile.ops) {
            EXPECT_GT(op.duration, 0.0) << op.name;
            EXPECT_GT(op.capacity, 0.0) << op.name;
            EXPECT_LE(op.capacity, op.duration + 1e-12) << op.name;
            EXPECT_GE(op.leftover.sm, 0.0);
            EXPECT_LE(op.leftover.sm, 1.0);
        }
    }
}

TEST(CapacityEstimator, CommOpsHaveFullLeftover)
{
    Fixture f;
    OverlappingCapacityEstimator estimator(f.clusterSpec, f.config,
                                           f.sharding);
    const auto profile = estimator.profile(0);
    for (const auto &op : profile.ops) {
        if (op.comm) {
            EXPECT_DOUBLE_EQ(op.leftover.sm, 1.0) << op.name;
        }
    }
}

TEST(CapacityEstimator, MlpLayersHaveSmallSmLeftover)
{
    Fixture f;
    OverlappingCapacityEstimator estimator(f.clusterSpec, f.config,
                                           f.sharding);
    const auto profile = estimator.profile(0);
    for (const auto &op : profile.ops) {
        if (op.kind == dlrm::TrainOpKind::TopMlpBackward) {
            EXPECT_LT(op.leftover.sm, 0.2);
        }
        if (op.kind == dlrm::TrainOpKind::EmbeddingLookup) {
            EXPECT_GT(op.leftover.sm, 0.7);
        }
    }
}

TEST(CapacityProfile, TotalsAndOrdering)
{
    Fixture f;
    OverlappingCapacityEstimator estimator(f.clusterSpec, f.config,
                                           f.sharding);
    const auto profile = estimator.profile(0);
    Seconds sum = 0.0;
    for (const auto &op : profile.ops)
        sum += op.capacity;
    EXPECT_NEAR(profile.totalCapacity(), sum, 1e-12);
    // Capacity roughly tracks the iteration (within the safety factor).
    EXPECT_LT(profile.totalCapacity(), profile.iterationLatency);

    const auto order = profile.byCapacityDescending();
    ASSERT_EQ(order.size(), profile.ops.size());
    for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_GE(profile.ops[order[i - 1]].capacity,
                  profile.ops[order[i]].capacity);
    }
}

TEST(CapacityProbe, SmallKernelOverlapsForFree)
{
    const auto spec = sim::a100Spec();
    const auto train =
        sim::KernelDesc::synthetic("train", 500e-6, {0.6, 0.3});
    const auto small =
        sim::KernelDesc::synthetic("pre", 20e-6, {0.2, 0.1});
    // 10 small kernels (200us standalone) inside a 500us training op:
    // makespan should stay at the training op's latency.
    const Seconds makespan =
        OverlappingCapacityEstimator::probeOverlapLatency(spec, train,
                                                          small, 10);
    EXPECT_NEAR(makespan, 500e-6 + spec.kernelLaunchOverhead,
                40e-6);
}

TEST(CapacityProbe, OversizedKernelExtendsMakespan)
{
    const auto spec = sim::a100Spec();
    const auto train =
        sim::KernelDesc::synthetic("train", 500e-6, {0.9, 0.3});
    const auto big =
        sim::KernelDesc::synthetic("pre", 400e-6, {0.8, 0.1});
    // Low-priority preproc kernel is starved to the 0.1 leftover:
    // it cannot finish inside the training op.
    const Seconds makespan =
        OverlappingCapacityEstimator::probeOverlapLatency(spec, train,
                                                          big, 1);
    EXPECT_GT(makespan, 600e-6);
}

TEST(CapacityProbe, MoreWorkMonotone)
{
    const auto spec = sim::a100Spec();
    const auto train =
        sim::KernelDesc::synthetic("train", 300e-6, {0.5, 0.3});
    const auto pre =
        sim::KernelDesc::synthetic("pre", 50e-6, {0.3, 0.1});
    Seconds prev = 0.0;
    for (int count : {1, 4, 8, 16}) {
        const Seconds makespan =
            OverlappingCapacityEstimator::probeOverlapLatency(
                spec, train, pre, count);
        EXPECT_GE(makespan, prev);
        prev = makespan;
    }
    // 16 * 50us = 800us standalone exceeds the 300us op: exposed.
    EXPECT_GT(prev, 700e-6);
}

} // namespace
} // namespace rap::core
