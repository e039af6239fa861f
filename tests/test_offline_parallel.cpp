/**
 * @file
 * Determinism tests for the parallel offline planning phase.
 *
 * The thread-pool contract promises that serial and multi-threaded
 * runs of the same configuration are bit-identical. These tests pin
 * that down for planOffline's mapping and per-GPU schedules, with and
 * without hybrid offload and row-wise sharding. All floating-point
 * comparisons use EXPECT_EQ on purpose — bit-identical, not merely
 * close. Fast enough to run under TSan, which race-checks the pool.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace rap
