/**
 * @file
 * Tests for schedule rendering and frontend code generation.
 */

#include <gtest/gtest.h>

#include "core/codegen.hpp"
#include "core/corun_scheduler.hpp"
#include "preproc/plan.hpp"

namespace rap::core {
namespace {

struct Fixture
{
    Fixture()
        : plan(preproc::makePlan(0)),
          clusterSpec(sim::dgxA100Spec(2)),
          config(dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema())),
          sharding(dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 2)),
          planner(clusterSpec.gpu)
    {
        OverlappingCapacityEstimator estimator(clusterSpec, config,
                                               sharding);
        profile = estimator.profile(0);
        CoRunScheduler scheduler(planner);
        schedule = scheduler.schedule(planner.plan(plan.graph, 4096),
                                      profile);
    }
    preproc::PreprocPlan plan;
    sim::ClusterSpec clusterSpec;
    dlrm::DlrmConfig config;
    dlrm::EmbeddingSharding sharding;
    HorizontalFusionPlanner planner;
    CapacityProfile profile;
    CoRunSchedule schedule;
};

TEST(Codegen, ScheduleTableListsEveryKernel)
{
    Fixture f;
    const auto table =
        ScheduleCodegen::renderScheduleTable(f.schedule, f.profile);
    EXPECT_NE(table.find("co-runs with"), std::string::npos);
    EXPECT_NE(table.find("total preprocessing latency"),
              std::string::npos);
    // One row per scheduled kernel (count the kernel type names).
    std::size_t rows = 0;
    for (const auto &sk : f.schedule.kernels) {
        (void)sk;
        ++rows;
    }
    EXPECT_GT(rows, 0u);
    EXPECT_NE(table.find("SigridHash"), std::string::npos);
}

TEST(Codegen, PythonFrontendMentionsLayersAndKernels)
{
    Fixture f;
    const auto code = ScheduleCodegen::renderPythonFrontend(
        f.schedule, f.profile, 0);
    EXPECT_NE(code.find("import torch"), std::string::npos);
    EXPECT_NE(code.find("preproc_stream"), std::string::npos);
    EXPECT_NE(code.find("rap_kernels.fused_"), std::string::npos);
    // Every training layer appears as a co-run point.
    for (const auto &op : f.profile.ops)
        EXPECT_NE(code.find(op.name), std::string::npos) << op.name;
    // Every scheduled kernel is emitted.
    std::size_t launches = 0;
    std::size_t pos = 0;
    while ((pos = code.find("rap_kernels.fused_", pos)) !=
           std::string::npos) {
        ++launches;
        ++pos;
    }
    EXPECT_EQ(launches, f.schedule.kernels.size());
}

TEST(Codegen, MappingSummaryHasOneRowPerGpu)
{
    Fixture f;
    GraphMapper mapper(f.plan, f.sharding, f.clusterSpec, 4096);
    const auto mapping = mapper.map(MappingStrategy::DataParallel);
    const auto summary =
        ScheduleCodegen::renderMappingSummary(mapping);
    EXPECT_NE(summary.find("comm out"), std::string::npos);
    EXPECT_NE(summary.find("0"), std::string::npos);
    EXPECT_NE(summary.find("1"), std::string::npos);
}

} // namespace
} // namespace rap::core
