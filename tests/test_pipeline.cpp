/**
 * @file
 * End-to-end integration tests: every system runs to completion and
 * their relative ordering matches the paper's findings.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/run_request.hpp"
#include "sim/cluster.hpp"

namespace rap::core {
namespace {

RunReport
runOn(System system, const preproc::PreprocPlan &plan, int gpus = 2,
      std::int64_t batch = 4096)
{
    SystemConfig config;
    config.system = system;
    config.gpuCount = gpus;
    config.batchPerGpu = batch;
    config.iterations = 10;
    config.warmup = 2;
    return RunRequest(config).run(plan);
}

TEST(Pipeline, SystemNames)
{
    EXPECT_EQ(systemName(System::Rap), "RAP");
    EXPECT_EQ(systemName(System::Ideal), "Ideal");
    EXPECT_EQ(systemName(System::TorchArrowCpu), "TorchArrow");
    EXPECT_EQ(systemName(System::SequentialGpu), "Sequential");
}

TEST(Pipeline, AllSystemsCompletePlan0)
{
    const auto plan = preproc::makePlan(0);
    for (auto system :
         {System::Ideal, System::Rap, System::RapNoMapping,
          System::RapNoFusion, System::CudaStream, System::Mps,
          System::SequentialGpu, System::TorchArrowCpu}) {
        const auto report = runOn(system, plan);
        EXPECT_GT(report.throughput, 0.0) << report.system;
        EXPECT_GT(report.avgIterationLatency, 0.0) << report.system;
        EXPECT_EQ(report.gpuCount, 2) << report.system;
    }
}

TEST(Pipeline, RapMatchesIdealOnPlan0)
{
    const auto plan = preproc::makePlan(0);
    const auto ideal = runOn(System::Ideal, plan);
    const auto rap = runOn(System::Rap, plan);
    // The paper's headline: near-perfect overlap (3.24% below ideal).
    EXPECT_GT(rap.throughput, 0.93 * ideal.throughput);
    EXPECT_LE(rap.throughput, 1.01 * ideal.throughput);
}

TEST(Pipeline, SequentialFullyExposesPreprocessing)
{
    const auto plan = preproc::makePlan(0);
    const auto ideal = runOn(System::Ideal, plan);
    const auto seq = runOn(System::SequentialGpu, plan);
    EXPECT_LT(seq.throughput, 0.9 * ideal.throughput);
}

TEST(Pipeline, SystemOrderingOnHeavyPlan)
{
    const auto plan = preproc::makePlan(3);
    const auto ideal = runOn(System::Ideal, plan);
    const auto rap = runOn(System::Rap, plan);
    const auto mps = runOn(System::Mps, plan);
    const auto stream = runOn(System::CudaStream, plan);
    const auto seq = runOn(System::SequentialGpu, plan);
    const auto ta = runOn(System::TorchArrowCpu, plan);

    // Paper ordering: Ideal >= RAP > MPS >= stream > sequential > TA.
    EXPECT_GE(ideal.throughput, 0.99 * rap.throughput);
    EXPECT_GT(rap.throughput, mps.throughput);
    EXPECT_GE(mps.throughput, 0.99 * stream.throughput);
    EXPECT_GT(stream.throughput, seq.throughput);
    EXPECT_GT(seq.throughput, ta.throughput);
}

TEST(Pipeline, RapScalesNearlyLinearlyWithGpus)
{
    const auto plan = preproc::makePlan(1);
    const auto rap2 = runOn(System::Rap, plan, 2);
    const auto rap8 = runOn(System::Rap, plan, 8);
    EXPECT_GT(rap8.throughput, 3.0 * rap2.throughput);
}

TEST(Pipeline, TorchArrowSaturatesOnCpu)
{
    const auto plan = preproc::makePlan(2);
    // Long runs so the worker pipeline reaches its steady state.
    SystemConfig config;
    config.system = System::TorchArrowCpu;
    config.iterations = 40;
    config.warmup = 10;
    config.gpuCount = 2;
    const auto ta2 = RunRequest(config).run(plan);
    config.gpuCount = 8;
    const auto ta8 = RunRequest(config).run(plan);
    // CPU-bound: 4x the GPUs must not give 4x the throughput.
    EXPECT_LT(ta8.throughput, 2.5 * ta2.throughput);
}

TEST(Pipeline, RapReportsPreprocessingMetadata)
{
    const auto plan = preproc::makePlan(0);
    const auto rap = runOn(System::Rap, plan);
    EXPECT_GT(rap.preprocKernelsPerIter, 0.0);
    EXPECT_GT(rap.preprocLatencyPerIter, 0.0);
    EXPECT_DOUBLE_EQ(rap.predictedExposed, 0.0);
}

TEST(Pipeline, FusionShrinksKernelCount)
{
    const auto plan = preproc::makePlan(0);
    const auto fused = runOn(System::Rap, plan);
    const auto unfused = runOn(System::RapNoFusion, plan);
    EXPECT_LT(fused.preprocKernelsPerIter,
              0.3 * unfused.preprocKernelsPerIter);
}

TEST(Pipeline, DpMappingMovesBytes)
{
    const auto plan = preproc::makePlan(0);
    const auto dp = runOn(System::RapNoMapping, plan);
    const auto rap = runOn(System::Rap, plan);
    EXPECT_GT(dp.p2pBytes, 0.0);
    EXPECT_LT(rap.p2pBytes, dp.p2pBytes);
}

TEST(Pipeline, UtilisationHigherWhenCoRunning)
{
    const auto plan = preproc::makePlan(2);
    const auto ideal = runOn(System::Ideal, plan);
    const auto rap = runOn(System::Rap, plan);
    // Co-running uses leftover resources: busy fraction goes up.
    EXPECT_GE(rap.avgGpuBusy, ideal.avgGpuBusy - 0.02);
    EXPECT_GT(rap.avgSmUtil, 0.2);
    EXPECT_LE(rap.avgSmUtil, 1.0);
}

TEST(Pipeline, LargerBatchLongerIteration)
{
    const auto plan = preproc::makePlan(0);
    const auto small = runOn(System::Rap, plan, 2, 4096);
    const auto large = runOn(System::Rap, plan, 2, 8192);
    EXPECT_GT(large.avgIterationLatency, small.avgIterationLatency);
}

TEST(Pipeline, InterleavingFlagSupported)
{
    const auto plan = preproc::makePlan(2);
    SystemConfig config;
    config.system = System::Rap;
    config.gpuCount = 2;
    config.iterations = 10;
    config.warmup = 2;
    config.interleave = false;
    const auto without = RunRequest(config).run(plan);
    config.interleave = true;
    const auto with = RunRequest(config).run(plan);
    // Interleaving may only help (or tie) the iteration interval.
    EXPECT_LE(with.avgIterationLatency,
              without.avgIterationLatency * 1.01);
}

TEST(Pipeline, RunReportLifecycleTimestamps)
{
    // Fresh (standalone) reports carry no fleet-lifecycle timestamps,
    // and the derived delays report "not applicable" instead of the
    // negative garbage a zero-filled default used to produce.
    RunReport fresh;
    EXPECT_FALSE(fresh.submittedAt.has_value());
    EXPECT_FALSE(fresh.startedAt.has_value());
    EXPECT_FALSE(fresh.finishedAt.has_value());
    EXPECT_FALSE(fresh.queueingDelay().has_value());
    EXPECT_FALSE(fresh.jobCompletionTime().has_value());

    // A partially-filled report still reports "not applicable" for
    // any delta whose endpoints are missing.
    RunReport partial;
    partial.startedAt = 1.75;
    EXPECT_FALSE(partial.queueingDelay().has_value());
    EXPECT_FALSE(partial.jobCompletionTime().has_value());

    // …and the helpers are exact deltas once a scheduler fills them.
    RunReport report = runOn(System::Rap, preproc::makePlan(0));
    report.submittedAt = 1.25;
    report.startedAt = 1.75;
    report.finishedAt = 4.0;
    ASSERT_TRUE(report.queueingDelay().has_value());
    ASSERT_TRUE(report.jobCompletionTime().has_value());
    EXPECT_DOUBLE_EQ(*report.queueingDelay(), 0.5);
    EXPECT_DOUBLE_EQ(*report.jobCompletionTime(), 2.75);
    EXPECT_GT(*report.jobCompletionTime(), *report.queueingDelay());
}

TEST(Pipeline, GpuSubsetAndEnvelopeConfigSupported)
{
    // A job confined to GPUs {3, 5} of an 8-GPU node, on the subset's
    // share of the host, completes like any 2-GPU run.
    const auto plan = preproc::makePlan(0);
    SystemConfig config;
    config.system = System::Rap;
    config.gpuCount = 2;
    config.batchPerGpu = 4096;
    config.iterations = 10;
    config.warmup = 2;
    config.clusterSpec = sim::subsetSpec(sim::dgxA100Spec(8), 2);
    config.gpuSubset = {3, 5};
    const auto whole = RunRequest(config).run(plan);
    EXPECT_GT(whole.throughput, 0.0);
    EXPECT_EQ(whole.gpuCount, 2);

    // Halving the capacity envelope on both GPUs can only slow the
    // same job down.
    config.envelopes = {{0.5, 0.5}, {0.5, 0.5}};
    const auto sliced = RunRequest(config).run(plan);
    EXPECT_GT(sliced.throughput, 0.0);
    EXPECT_GT(sliced.makespan, whole.makespan);
    EXPECT_LT(sliced.throughput, whole.throughput);
}

TEST(PipelineDeath, BadIterationConfigPanics)
{
    const auto plan = preproc::makePlan(0);
    SystemConfig config;
    config.iterations = 2;
    config.warmup = 2;
    EXPECT_DEATH(RunRequest(config).run(plan), "warmup");
}

} // namespace
} // namespace rap::core
