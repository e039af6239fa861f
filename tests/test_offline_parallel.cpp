/**
 * @file
 * Determinism tests for the parallel offline planning phase.
 *
 * The thread-pool contract promises that serial and multi-threaded
 * runs of the same configuration are bit-identical. These tests pin
 * that down at every level that went parallel: the branch-and-bound
 * fusion solver, planOffline's mapping + per-GPU schedules, and the
 * end-to-end RunReport. All floating-point comparisons use EXPECT_EQ
 * on purpose — bit-identical, not merely close.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/rap.hpp"

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

void
expectSameReport(const core::RunReport &a, const core::RunReport &b)
{
    EXPECT_EQ(a.system, b.system);
    EXPECT_EQ(a.gpuCount, b.gpuCount);
    EXPECT_EQ(a.batchPerGpu, b.batchPerGpu);
    EXPECT_EQ(a.avgIterationLatency, b.avgIterationLatency);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.avgSmUtil, b.avgSmUtil);
    EXPECT_EQ(a.avgBwUtil, b.avgBwUtil);
    EXPECT_EQ(a.avgGpuBusy, b.avgGpuBusy);
    EXPECT_EQ(a.p2pBytes, b.p2pBytes);
    EXPECT_EQ(a.preprocKernelsPerIter, b.preprocKernelsPerIter);
    EXPECT_EQ(a.predictedExposed, b.predictedExposed);
    EXPECT_EQ(a.preprocLatencyPerIter, b.preprocLatencyPerIter);
}

TEST(OfflineParallel, PlanOfflineMatchesSerial)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 3328);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 8;

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

TEST(OfflineParallel, RunReportBitIdenticalAcrossThreadCounts)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 3328);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 8;
    config.planningThreads = 1;
    const auto serial = core::RunRequest(config).run(plan);
    config.planningThreads = 4;
    const auto threaded = core::RunRequest(config).run(plan);
    expectSameReport(serial, threaded);
}

TEST(OfflineParallel, HybridAndRowWiseSystemsStayDeterministic)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 6656);
    for (const auto system :
         {core::System::HybridRap, core::System::Rap}) {
        core::SystemConfig config;
        config.system = system;
        config.gpuCount = 4;
        config.rowWiseThreshold =
            system == core::System::Rap ? 100000 : 0;
        config.planningThreads = 1;
        const auto serial = core::RunRequest(config).run(plan);
        config.planningThreads = 4;
        const auto threaded = core::RunRequest(config).run(plan);
        SCOPED_TRACE(core::systemName(system));
        expectSameReport(serial, threaded);
    }
}

/** Parallel branch-and-bound equals serial on random small DAGs. */
class SolverThreadsTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SolverThreadsTest, ExactSolverBitIdentical)
{
    Rng rng(GetParam());
    milp::FusionProblem problem;
    const int n = static_cast<int>(rng.uniformInt(4, 10));
    for (int i = 0; i < n; ++i) {
        problem.type.push_back(static_cast<int>(rng.uniformInt(0, 2)));
        for (int j = 0; j < i; ++j) {
            if (rng.bernoulli(0.3 / (1.0 + 0.2 * i)))
                problem.deps.emplace_back(i, j);
        }
    }

    milp::SolverOptions serial_options;
    serial_options.threads = 1;
    const auto serial =
        milp::FusionSolver(serial_options).solveExact(problem);
    if (!serial.optimal) {
        // Bit-identity is only promised while the node budget holds
        // (SolverOptions::threads doc); a budget-exhausted instance
        // can legitimately diverge.
        GTEST_SKIP() << "node budget exhausted on this instance";
    }

    for (int threads : {2, 4, 8}) {
        milp::SolverOptions options;
        options.threads = threads;
        const auto parallel =
            milp::FusionSolver(options).solveExact(problem);
        EXPECT_EQ(parallel.step, serial.step) << threads << " threads";
        EXPECT_EQ(parallel.objective, serial.objective);
        EXPECT_EQ(parallel.optimal, serial.optimal);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, SolverThreadsTest,
                         ::testing::Range<std::uint64_t>(1, 26));

} // namespace
} // namespace rap
