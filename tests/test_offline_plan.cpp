/**
 * @file
 * Tests of the offline planning step.
 *
 * They pin that the schedules RAP keeps from its mapping search are
 * the ones a fresh plan-and-schedule pass over the final mapping
 * builds, and that a drift replan reruns the system's own planning
 * step: RAP's search, or the fixed mapping of a system without it,
 * over the degraded profiles. All floating-point comparisons use
 * EXPECT_EQ on purpose — bit-identical, not merely close.
 */

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/rap.hpp"
#include "obs/metrics.hpp"

namespace rap {
namespace {

void
expectSameSchedule(const core::CoRunSchedule &a,
                   const core::CoRunSchedule &b)
{
    EXPECT_EQ(a.totalPreprocLatency, b.totalPreprocLatency);
    EXPECT_EQ(a.capacityUsed, b.capacityUsed);
    EXPECT_EQ(a.estimatedExposed, b.estimatedExposed);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        const auto &ka = a.kernels[k];
        const auto &kb = b.kernels[k];
        EXPECT_EQ(ka.kernel.nodeIds, kb.kernel.nodeIds) << "kernel " << k;
        EXPECT_EQ(ka.kernel.type, kb.kernel.type) << "kernel " << k;
        EXPECT_EQ(ka.kernel.step, kb.kernel.step) << "kernel " << k;
        EXPECT_EQ(ka.kernel.predictedLatency,
                  kb.kernel.predictedLatency)
            << "kernel " << k;
        EXPECT_EQ(ka.opIndex, kb.opIndex) << "kernel " << k;
        EXPECT_EQ(ka.overflow, kb.overflow) << "kernel " << k;
    }
}

/** A fresh mapper and fusion planner for @p config on @p plan. */
struct Planners
{
    Planners(const core::SystemConfig &config,
             const preproc::PreprocPlan &plan)
        : spec(sim::dgxA100Spec(config.gpuCount)),
          sharding(dlrm::EmbeddingSharding::balanced(plan.graph.schema(),
                                                     config.gpuCount)),
          mapper(plan, sharding, spec, config.batchPerGpu),
          fusion(spec.gpu, nullptr,
                 core::FusionOptions{config.system !=
                                     core::System::RapNoFusion})
    {
    }

    sim::ClusterSpec spec;
    dlrm::EmbeddingSharding sharding;
    core::GraphMapper mapper;
    core::HorizontalFusionPlanner fusion;
};

/**
 * Fusion-plans and Algorithm-1-schedules every GPU's share of
 * @p mapping from scratch, as the offline planning step does for a
 * capacity-scheduling system.
 */
std::vector<core::CoRunSchedule>
freshSchedules(const core::SystemConfig &config,
               const preproc::PreprocPlan &plan,
               const core::GraphMapping &mapping,
               const std::vector<core::CapacityProfile> &profiles)
{
    const Planners fresh(config, plan);
    const core::CoRunScheduler scheduler(fresh.fusion);
    std::vector<core::CoRunSchedule> schedules;
    for (int g = 0; g < config.gpuCount; ++g) {
        schedules.push_back(scheduler.schedule(
            fresh.fusion.plan(fresh.mapper.buildGpuGraph(mapping, g),
                              config.batchPerGpu),
            profiles[static_cast<std::size_t>(g)]));
    }
    return schedules;
}

void
expectSameSchedules(const std::vector<core::CoRunSchedule> &a,
                    const std::vector<core::CoRunSchedule> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t g = 0; g < a.size(); ++g) {
        SCOPED_TRACE("gpu " + std::to_string(g));
        expectSameSchedule(a[g], b[g]);
    }
}

class ReusedSchedules : public ::testing::TestWithParam<core::System>
{
};

TEST_P(ReusedSchedules, MatchAFreshPassOverTheMapping)
{
    // Plan 1 keeps the data-locality mapping (only the initial sweep's
    // schedules are kept); the skewed plan makes mapRap accept moves,
    // so the committed candidates' schedules are kept.
    struct Case
    {
        const char *name;
        preproc::PreprocPlan plan;
        bool movesAccepted;
    };
    const Case cases[] = {
        {"plan1", preproc::makePlan(1), false},
        {"skewed", preproc::makeSkewedPlan(0, 4, 1500), true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        obs::MetricRegistry metrics;
        core::SystemConfig config;
        config.system = GetParam();
        config.gpuCount = 4;
        config.metrics = &metrics;
        const auto offline = core::planOffline(config, c.plan);
        expectSameSchedules(
            offline.schedules,
            freshSchedules(config, c.plan, offline.mapping,
                           offline.profiles));
        EXPECT_EQ(
            metrics.counter("plan.mapping.moves_accepted").value() > 0,
            c.movesAccepted);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RapSystems, ReusedSchedules,
    ::testing::Values(core::System::Rap, core::System::RapNoFusion,
                      core::System::HybridRap),
    [](const ::testing::TestParamInfo<core::System> &param_info) {
        switch (param_info.param) {
          case core::System::Rap: return std::string("Rap");
          case core::System::RapNoFusion:
            return std::string("RapNoFusion");
          default: return std::string("HybridRap");
        }
    });

/** The 4-GPU configuration the degraded-replan tests run. */
core::SystemConfig
replanConfig(core::System system)
{
    core::SystemConfig config;
    config.system = system;
    config.gpuCount = 4;
    config.iterations = 8;
    config.warmup = 2;
    return config;
}

/** @return @p offline's profiles with GPU 0 at half its SMs. */
std::vector<core::CapacityProfile>
halfSmsOnGpu0(const core::OfflinePlan &offline)
{
    std::vector<core::CapacityProfile> degraded;
    for (std::size_t g = 0; g < offline.profiles.size(); ++g) {
        degraded.push_back(core::degradeProfile(
            offline.profiles[g], g == 0 ? 0.5 : 1.0, 1.0));
    }
    return degraded;
}

/**
 * Runs @p config on @p plan with GPU 0 at half its SMs from t = 0 and
 * replanning on, and expects the report's schedule means to be those
 * of @p schedules: what the replan keeps.
 */
void
expectReplanLandsOn(core::SystemConfig config,
                    const preproc::PreprocPlan &plan,
                    const std::vector<core::CoRunSchedule> &schedules)
{
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.0, 0.5));
    config.faults = faults;
    config.replanOnDrift = true;
    const auto report = core::RunRequest(config).run(plan);
    ASSERT_GE(report.replans, 1);
    RunningStat launches, exposed, latency;
    for (const auto &schedule : schedules) {
        launches.add(static_cast<double>(schedule.kernelCount()));
        exposed.add(schedule.estimatedExposed);
        latency.add(schedule.totalPreprocLatency);
    }
    EXPECT_EQ(report.preprocKernelsPerIter, launches.mean());
    EXPECT_EQ(report.predictedExposed, exposed.mean());
    EXPECT_EQ(report.preprocLatencyPerIter, latency.mean());
}

TEST(ReusedSchedules, DegradedReplanMatchesAFreshPass)
{
    // A RAP replan reruns mapRap on the degraded profiles and keeps
    // its priced schedules. Degrade GPU 0 of the skewed plan to half
    // its SMs and recompute what that replan keeps from scratch.
    const auto plan = preproc::makeSkewedPlan(0, 4, 1500);
    const auto config = replanConfig(core::System::Rap);
    const auto degraded = halfSmsOnGpu0(core::planOffline(config, plan));
    const Planners fresh(config, plan);
    const auto searched = fresh.mapper.mapRap(degraded, fresh.fusion);
    EXPECT_GT(searched.stats.movesAccepted, 0);
    const auto schedules =
        freshSchedules(config, plan, searched.mapping, degraded);
    expectSameSchedules(searched.schedules, schedules);

    // End to end: the run's replan lands on the same schedules.
    expectReplanLandsOn(config, plan, schedules);
}

TEST(ReusedSchedules, DegradedReplanKeepsTheSystemsMapping)
{
    // RapNoMapping has no mapping search, so its replan reschedules
    // the data-parallel mapping over the degraded profiles; running
    // RAP's search there would move items (fewer kernels per
    // iteration on the skewed plan).
    const auto plan = preproc::makeSkewedPlan(0, 4, 1500);
    const auto config = replanConfig(core::System::RapNoMapping);
    const auto degraded = halfSmsOnGpu0(core::planOffline(config, plan));
    const auto mapping = Planners(config, plan).mapper.map(
        core::MappingStrategy::DataParallel);
    expectReplanLandsOn(config, plan,
                        freshSchedules(config, plan, mapping, degraded));
}

} // namespace
} // namespace rap
