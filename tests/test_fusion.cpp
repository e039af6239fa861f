/**
 * @file
 * Tests for the horizontal fusion planner (§6.1-6.2).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/fusion.hpp"
#include "preproc/plan.hpp"

namespace rap::core {
namespace {

TEST(CombineShapes, WidthsAddAndParamsMax)
{
    preproc::OpShape a;
    a.rows = 4096;
    a.width = 2;
    a.avgListLength = 2.0;
    a.param = 2.0;
    preproc::OpShape b = a;
    b.width = 6;
    b.avgListLength = 4.0;
    b.param = 3.0;
    const auto combined = combineShapes({a, b});
    EXPECT_EQ(combined.rows, 4096);
    EXPECT_EQ(combined.width, 8);
    // Width-weighted mean: (2*2 + 6*4) / 8 = 3.5.
    EXPECT_NEAR(combined.avgListLength, 3.5, 1e-12);
    EXPECT_DOUBLE_EQ(combined.param, 3.0);
}

TEST(CombineShapesDeath, MismatchedRowsPanic)
{
    preproc::OpShape a;
    a.rows = 4096;
    preproc::OpShape b;
    b.rows = 8192;
    EXPECT_DEATH((void)combineShapes({a, b}), "batch size");
}

TEST(FusionPlanner, Plan0FusesHeavily)
{
    const auto plan = preproc::makePlan(0);
    HorizontalFusionPlanner planner(sim::a100Spec());
    const auto kernels = planner.plan(plan.graph, 4096);

    // 104 ops collapse into a handful of fused kernels.
    EXPECT_LT(kernels.size(), 15u);
    EXPECT_GE(kernels.size(), 4u);

    // Every node appears exactly once.
    std::set<int> seen;
    std::size_t total = 0;
    for (const auto &k : kernels) {
        for (int id : k.nodeIds) {
            EXPECT_TRUE(seen.insert(id).second);
            ++total;
        }
        EXPECT_EQ(k.nodeIds.size(), k.memberShapes.size());
        EXPECT_EQ(k.width(), static_cast<int>(k.nodeIds.size()));
    }
    EXPECT_EQ(total, plan.graph.nodeCount());
}

TEST(FusionPlanner, Plan0GroupsAreTypeHomogeneous)
{
    const auto plan = preproc::makePlan(0);
    HorizontalFusionPlanner planner(sim::a100Spec());
    for (const auto &k : planner.plan(plan.graph, 4096)) {
        for (int id : k.nodeIds)
            EXPECT_EQ(plan.graph.node(id).type, k.type);
    }
}

TEST(FusionPlanner, StepOrderRespectsDependencies)
{
    const auto plan = preproc::makePlan(2);
    HorizontalFusionPlanner planner(sim::a100Spec());
    const auto kernels = planner.plan(plan.graph, 4096);

    std::map<int, int> node_step;
    for (const auto &k : kernels) {
        for (int id : k.nodeIds)
            node_step[id] = k.step;
    }
    for (const auto &node : plan.graph.nodes()) {
        for (int dep : node.deps)
            EXPECT_GT(node_step[node.id], node_step[dep]);
    }
    // Kernels come out sorted by step.
    for (std::size_t i = 1; i < kernels.size(); ++i)
        EXPECT_GE(kernels[i].step, kernels[i - 1].step);
}

TEST(FusionPlanner, FusionDisabledYieldsSingletons)
{
    const auto plan = preproc::makePlan(0);
    FusionOptions options;
    options.enableFusion = false;
    HorizontalFusionPlanner planner(sim::a100Spec(), nullptr, options);
    const auto kernels = planner.plan(plan.graph, 4096);
    EXPECT_EQ(kernels.size(), plan.graph.nodeCount());
    for (const auto &k : kernels)
        EXPECT_EQ(k.width(), 1);
}

TEST(FusionPlanner, FusionReducesTotalLatency)
{
    const auto plan = preproc::makePlan(0);
    const auto spec = sim::a100Spec();
    HorizontalFusionPlanner fused_planner(spec);
    FusionOptions off;
    off.enableFusion = false;
    HorizontalFusionPlanner single_planner(spec, nullptr, off);

    auto total = [](const std::vector<FusedKernel> &kernels) {
        Seconds sum = 0.0;
        for (const auto &k : kernels)
            sum += k.predictedLatency;
        return sum;
    };
    EXPECT_LT(total(fused_planner.plan(plan.graph, 4096)),
              0.5 * total(single_planner.plan(plan.graph, 4096)));
}

TEST(FusionPlanner, KernelsCarryCostMetadata)
{
    const auto plan = preproc::makePlan(0);
    HorizontalFusionPlanner planner(sim::a100Spec());
    for (const auto &k : planner.plan(plan.graph, 4096)) {
        EXPECT_GT(k.predictedLatency, 0.0);
        EXPECT_GT(k.kernel.exclusiveLatency, 0.0);
        EXPECT_GT(k.inputBytes, 0.0);
        EXPECT_GT(k.prepCpuSeconds, 0.0);
        // Oracle predictor: prediction equals the cost model.
        EXPECT_DOUBLE_EQ(k.predictedLatency,
                         k.kernel.exclusiveLatency);
    }
}

TEST(FusionPlanner, EmptyGraphYieldsNoKernels)
{
    preproc::PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    HorizontalFusionPlanner planner(sim::a100Spec());
    EXPECT_TRUE(planner.plan(graph, 4096).empty());
}

TEST(FusionPlanner, ProblemConversionKeepsStructure)
{
    const auto plan = preproc::makePlan(0);
    const auto problem =
        HorizontalFusionPlanner::toProblem(plan.graph);
    EXPECT_EQ(problem.size(), plan.graph.nodeCount());
    std::size_t dep_count = 0;
    for (const auto &node : plan.graph.nodes())
        dep_count += node.deps.size();
    EXPECT_EQ(problem.deps.size(), dep_count);
}

TEST(FusionPlanner, LocalSearchObjectivesOnRandomisedPlans)
{
    // The ablation A4 pairs: the seeds alone (no search rounds)
    // against the full local search.
    milp::SolverOptions seeds_only;
    seeds_only.localSearchRounds = 0;
    const std::pair<int, std::pair<double, double>> expected[] = {
        {2, {10272.0, 10542.0}}, {3, {51906.0, 53984.0}}};
    for (const auto &[plan_id, objectives] : expected) {
        const auto problem = HorizontalFusionPlanner::toProblem(
            preproc::makePlan(plan_id).graph);
        EXPECT_DOUBLE_EQ(
            milp::FusionSolver(seeds_only).solveHeuristic(problem)
                .objective,
            objectives.first)
            << "plan " << plan_id;
        EXPECT_DOUBLE_EQ(
            milp::FusionSolver().solveHeuristic(problem).objective,
            objectives.second)
            << "plan " << plan_id;
    }
}

} // namespace
} // namespace rap::core
