/**
 * @file
 * Property tests over the full plan-search stack: for randomly seeded
 * preprocessing plans, fusion plans must partition the graph, respect
 * dependencies and type homogeneity, and the resulting schedules must
 * stay within capacity accounting; end-to-end runs are deterministic.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/rap.hpp"

namespace rap::core {
namespace {

class PlanSearchPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlanSearchPropertyTest, FusionPartitionsRandomPlans)
{
    const auto plan = preproc::makePlan(2, GetParam());
    HorizontalFusionPlanner planner(sim::a100Spec());
    const auto kernels = planner.plan(plan.graph, 4096);

    std::set<int> seen;
    std::map<int, int> node_step;
    for (const auto &kernel : kernels) {
        for (int id : kernel.nodeIds) {
            ASSERT_TRUE(seen.insert(id).second)
                << "node fused twice (seed " << GetParam() << ")";
            ASSERT_EQ(plan.graph.node(id).type, kernel.type);
            node_step[id] = kernel.step;
        }
    }
    ASSERT_EQ(seen.size(), plan.graph.nodeCount());
    for (const auto &node : plan.graph.nodes()) {
        for (int dep : node.deps)
            ASSERT_GT(node_step[node.id], node_step[dep]);
    }
}

TEST_P(PlanSearchPropertyTest, FusionNeverIncreasesTotalLatency)
{
    const auto plan = preproc::makePlan(2, GetParam());
    const auto spec = sim::a100Spec();
    HorizontalFusionPlanner fused(spec);
    FusionOptions off;
    off.enableFusion = false;
    HorizontalFusionPlanner singles(spec, nullptr, off);
    auto total = [](const std::vector<FusedKernel> &kernels) {
        Seconds sum = 0.0;
        for (const auto &k : kernels)
            sum += k.predictedLatency;
        return sum;
    };
    EXPECT_LE(total(fused.plan(plan.graph, 4096)),
              total(singles.plan(plan.graph, 4096)) + 1e-12);
}

TEST_P(PlanSearchPropertyTest, ScheduleKeepsEveryNode)
{
    const auto plan = preproc::makePlan(2, GetParam());
    const auto cluster_spec = sim::dgxA100Spec(2);
    const auto config =
        dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema());
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 2);
    OverlappingCapacityEstimator estimator(cluster_spec, config,
                                           sharding);
    const auto profile = estimator.profile(0);
    HorizontalFusionPlanner planner(cluster_spec.gpu);
    CoRunScheduler scheduler(planner);
    const auto schedule = scheduler.schedule(
        planner.plan(plan.graph, 4096), profile);

    std::size_t nodes = 0;
    for (const auto &sk : schedule.kernels) {
        nodes += sk.kernel.nodeIds.size();
        ASSERT_LT(sk.opIndex, profile.ops.size());
    }
    EXPECT_EQ(nodes, plan.graph.nodeCount());
    EXPECT_GE(schedule.estimatedExposed, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanSearchPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u,
                                           66u));

TEST(PipelineDeterminism, IdenticalRunsProduceIdenticalReports)
{
    const auto plan = preproc::makePlan(2);
    SystemConfig config;
    config.system = System::Rap;
    config.gpuCount = 4;
    config.iterations = 8;
    config.warmup = 2;
    const auto a = RunRequest(config).run(plan);
    const auto b = RunRequest(config).run(plan);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.avgIterationLatency, b.avgIterationLatency);
    EXPECT_DOUBLE_EQ(a.avgSmUtil, b.avgSmUtil);
    EXPECT_DOUBLE_EQ(a.p2pBytes, b.p2pBytes);
}

TEST(PipelineDeterminism, BaselinesDeterministicToo)
{
    const auto plan = preproc::makePlan(0);
    for (auto system : {System::Mps, System::CudaStream,
                        System::TorchArrowCpu}) {
        SystemConfig config;
        config.system = system;
        config.gpuCount = 2;
        config.iterations = 8;
        config.warmup = 2;
        const auto a = RunRequest(config).run(plan);
        const auto b = RunRequest(config).run(plan);
        EXPECT_DOUBLE_EQ(a.throughput, b.throughput)
            << systemName(system);
    }
}

} // namespace
} // namespace rap::core
