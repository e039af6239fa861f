/**
 * @file
 * Determinism tests for the offline planning phase.
 *
 * The thread-pool contract promises that serial and multi-threaded
 * runs of the same configuration are bit-identical. These tests pin
 * that down for planOffline's mapping and per-GPU schedules, with and
 * without hybrid offload and row-wise sharding. They also pin that the
 * schedules RAP keeps from its mapping search are the ones a fresh
 * plan-and-schedule pass over the final mapping builds. All
 * floating-point comparisons use EXPECT_EQ on purpose — bit-identical,
 * not merely close. Fast enough to run under TSan, which race-checks
 * the pool.
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

/** One planOffline configuration checked against its serial plan. */
struct PlanCase
{
    const char *name;
    core::System system;
    int gpus;
    int ngramStress;
    std::int64_t rowWiseThreshold;
};

/** Names the case in test listings (gtest prints raw bytes otherwise). */
void
PrintTo(const PlanCase &c, std::ostream *os)
{
    *os << c.name;
}

class OfflineParallel : public ::testing::TestWithParam<PlanCase>
{
};

TEST_P(OfflineParallel, PlanOfflineMatchesSerial)
{
    const PlanCase &c = GetParam();
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, c.ngramStress);
    core::SystemConfig config;
    config.system = c.system;
    config.gpuCount = c.gpus;
    config.rowWiseThreshold = c.rowWiseThreshold;

    const auto serial = core::planOffline(config, plan, nullptr);
    ThreadPool pool(4);
    const auto threaded = core::planOffline(config, plan, &pool);

    ASSERT_EQ(serial.mapping.itemsPerGpu.size(),
              threaded.mapping.itemsPerGpu.size());
    for (std::size_t g = 0; g < serial.mapping.itemsPerGpu.size();
         ++g) {
        const auto &ia = serial.mapping.itemsPerGpu[g];
        const auto &ib = threaded.mapping.itemsPerGpu[g];
        ASSERT_EQ(ia.size(), ib.size()) << "gpu " << g;
        for (std::size_t i = 0; i < ia.size(); ++i) {
            EXPECT_EQ(ia[i].featureId, ib[i].featureId);
            EXPECT_EQ(ia[i].batch, ib[i].batch);
        }
    }
    EXPECT_EQ(serial.mapping.commOutBytes, threaded.mapping.commOutBytes);

    ASSERT_EQ(serial.schedules.size(), threaded.schedules.size());
    for (std::size_t g = 0; g < serial.schedules.size(); ++g) {
        SCOPED_TRACE("gpu " + std::to_string(g));
        expectSameSchedule(serial.schedules[g], threaded.schedules[g]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, OfflineParallel,
    ::testing::Values(
        PlanCase{"Rap8Gpus", core::System::Rap, 8, 3328, 0},
        PlanCase{"HybridRap4Gpus", core::System::HybridRap, 4, 6656, 0},
        PlanCase{"RapRowWise4Gpus", core::System::Rap, 4, 6656, 100000}),
    [](const ::testing::TestParamInfo<PlanCase> &param_info) {
        return std::string(param_info.param.name);
    });

/**
 * Fusion-plans and Algorithm-1-schedules every GPU's share of
 * @p mapping from scratch, as OfflinePlanner::schedule does for a
 * capacity-scheduling system.
 */
std::vector<core::CoRunSchedule>
freshSchedules(const core::SystemConfig &config,
               const preproc::PreprocPlan &plan,
               const core::GraphMapping &mapping,
               const std::vector<core::CapacityProfile> &profiles)
{
    const auto spec = sim::dgxA100Spec(config.gpuCount);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), config.gpuCount);
    const core::GraphMapper mapper(plan, sharding, spec,
                                   config.batchPerGpu);
    const core::HorizontalFusionPlanner fusion(
        spec.gpu, nullptr,
        core::FusionOptions{config.system != core::System::RapNoFusion});
    const core::CoRunScheduler scheduler(fusion);
    std::vector<core::CoRunSchedule> schedules;
    for (int g = 0; g < config.gpuCount; ++g) {
        schedules.push_back(scheduler.schedule(
            fusion.plan(mapper.buildGpuGraph(mapping, g),
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
        const auto offline = core::planOffline(config, c.plan, nullptr);
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

TEST(ReusedSchedules, DegradedReplanMatchesAFreshPass)
{
    // A replan with replanMapping reruns mapRap on the degraded
    // profiles and keeps its priced schedules. Degrade GPU 0 of the
    // skewed plan to half its SMs and recompute what that replan keeps
    // from scratch.
    const auto plan = preproc::makeSkewedPlan(0, 4, 1500);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 4;
    config.iterations = 8;
    config.warmup = 2;
    const auto offline = core::planOffline(config, plan, nullptr);
    std::vector<core::CapacityProfile> degraded;
    for (int g = 0; g < config.gpuCount; ++g) {
        degraded.push_back(core::degradeProfile(
            offline.profiles[static_cast<std::size_t>(g)],
            g == 0 ? 0.5 : 1.0, 1.0));
    }
    const auto spec = sim::dgxA100Spec(config.gpuCount);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), config.gpuCount);
    const core::GraphMapper mapper(plan, sharding, spec,
                                   config.batchPerGpu);
    const core::HorizontalFusionPlanner fusion(spec.gpu);
    core::MappingSearchStats stats;
    std::vector<core::CoRunSchedule> priced;
    const auto mapping =
        mapper.mapRap(degraded, fusion, 64, nullptr, &stats, &priced);
    EXPECT_GT(stats.movesAccepted, 0);
    const auto fresh = freshSchedules(config, plan, mapping, degraded);
    expectSameSchedules(priced, fresh);

    // End to end: the run's replan lands on the same schedules.
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.0, 0.5));
    config.faults = faults;
    config.replanOnDrift = true;
    config.replanMapping = true;
    const auto report = core::RunRequest(config).run(plan);
    ASSERT_GE(report.replans, 1);
    RunningStat launches, exposed, latency;
    for (const auto &schedule : fresh) {
        launches.add(static_cast<double>(schedule.kernelCount()));
        exposed.add(schedule.estimatedExposed);
        latency.add(schedule.totalPreprocLatency);
    }
    EXPECT_EQ(report.preprocKernelsPerIter, launches.mean());
    EXPECT_EQ(report.predictedExposed, exposed.mean());
    EXPECT_EQ(report.preprocLatencyPerIter, latency.mean());
}

} // namespace
} // namespace rap
