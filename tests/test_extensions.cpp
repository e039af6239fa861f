/**
 * @file
 * Tests for the extension features: the hybrid GPU+CPU system (§10),
 * the fusion-only ablation system (Fig. 11) and forced mapping
 * strategies (Fig. 12), plus the optimised CPU backend cost model.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/run_request.hpp"

namespace rap::core {
namespace {

TEST(OptimizedCpuBackend, FasterThanEagerForEveryOp)
{
    preproc::OpShape shape;
    shape.rows = 4096;
    shape.width = 4;
    shape.avgListLength = 4.0;
    shape.param = 3.0;
    for (auto type : preproc::allOpTypes()) {
        EXPECT_LT(preproc::opCpuSecondsOptimized(type, shape),
                  preproc::opCpuSeconds(type, shape))
            << preproc::opTypeName(type);
    }
}

TEST(HybridRap, MatchesRapWhenNothingOverflows)
{
    const auto plan = preproc::makePlan(0);
    SystemConfig config;
    config.gpuCount = 2;
    config.iterations = 10;
    config.warmup = 2;
    config.system = System::Rap;
    const auto rap = RunRequest(config).run(plan);
    config.system = System::HybridRap;
    const auto hybrid = RunRequest(config).run(plan);
    EXPECT_NEAR(hybrid.throughput, rap.throughput,
                0.01 * rap.throughput);
}

TEST(HybridRap, ReducesExposureUnderOverload)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 6656);
    SystemConfig config;
    config.gpuCount = 8;
    config.iterations = 10;
    config.warmup = 2;
    config.system = System::Rap;
    const auto rap = RunRequest(config).run(plan);
    config.system = System::HybridRap;
    const auto hybrid = RunRequest(config).run(plan);
    ASSERT_GT(rap.predictedExposed, 0.0);
    EXPECT_LT(hybrid.predictedExposed, rap.predictedExposed);
    EXPECT_GE(hybrid.throughput, 0.99 * rap.throughput);
}

TEST(FusionOnly, RunsAndStretchesTraining)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 832);
    SystemConfig config;
    config.gpuCount = 2;
    config.iterations = 10;
    config.warmup = 2;
    config.system = System::Ideal;
    const auto ideal = RunRequest(config).run(plan);
    config.system = System::HorizontalFusionOnly;
    const auto fusion = RunRequest(config).run(plan);
    config.system = System::Rap;
    const auto rap = RunRequest(config).run(plan);
    // Naive fair-share co-running of oversized fused kernels
    // stretches the trainer; RAP's scheduling avoids that.
    EXPECT_GT(fusion.avgIterationLatency,
              ideal.avgIterationLatency);
    EXPECT_LE(rap.avgIterationLatency,
              fusion.avgIterationLatency + 1e-9);
}

TEST(ForcedMapping, OverridesSystemDefault)
{
    const auto plan = preproc::makePlan(0);
    SystemConfig config;
    config.system = System::Rap;
    config.gpuCount = 2;
    config.iterations = 8;
    config.warmup = 2;

    config.forcedMapping = MappingStrategy::DataParallel;
    const auto dp = RunRequest(config).run(plan);
    config.forcedMapping = MappingStrategy::DataLocality;
    const auto dl = RunRequest(config).run(plan);
    // DP ships outputs to table owners; DL ships nothing.
    EXPECT_GT(dp.p2pBytes, 0.0);
    EXPECT_DOUBLE_EQ(dl.p2pBytes, 0.0);
}

TEST(Interleaving, HelpsUnderHeavyLoad)
{
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 13312);
    SystemConfig config;
    config.system = System::Rap;
    config.gpuCount = 8;
    config.iterations = 10;
    config.warmup = 2;
    config.interleave = false;
    const auto off = RunRequest(config).run(plan);
    config.interleave = true;
    const auto on = RunRequest(config).run(plan);
    EXPECT_LT(on.avgIterationLatency,
              0.95 * off.avgIterationLatency);
}

TEST(SystemNames, NewSystemsNamed)
{
    EXPECT_EQ(systemName(System::HybridRap), "RAP hybrid (GPU+CPU)");
    EXPECT_EQ(systemName(System::HorizontalFusionOnly),
              "Horizontal Fusion");
}

} // namespace
} // namespace rap::core
