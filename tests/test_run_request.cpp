/**
 * @file
 * Tests for the validated run API: SystemConfig::validate() (one test
 * per error path, plus multi-error accumulation) and the RunRequest
 * builder (field plumbing, validate() pass-through, and build()'s
 * fatal exit on an invalid configuration), run()'s exit on a
 * hand-built graph that leaves its schema, and that a trace path
 * changes no report byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/run_request.hpp"
#include "obs/metrics.hpp"
#include "preproc/plan.hpp"
#include "sim/fault.hpp"

namespace rap::core {
namespace {

/** @return Whether @p result contains an error for @p field. */
bool
hasError(const ValidationResult &result, const std::string &field)
{
    for (const auto &error : result.errors()) {
        if (error.field == field)
            return true;
    }
    return false;
}

TEST(Validate, DefaultConfigIsValid)
{
    const SystemConfig config;
    const auto result = config.validate();
    EXPECT_TRUE(result.ok()) << result.render();
    EXPECT_TRUE(result.errors().empty());
    EXPECT_EQ(result.render(), "");
}

TEST(Validate, RejectsNonPositiveGpuCount)
{
    SystemConfig config;
    config.gpuCount = 0;
    EXPECT_TRUE(hasError(config.validate(), "gpuCount"));
}

TEST(Validate, RejectsNonPositiveBatch)
{
    SystemConfig config;
    config.batchPerGpu = 0;
    EXPECT_TRUE(hasError(config.validate(), "batchPerGpu"));
}

TEST(Validate, RejectsNonPositiveIterations)
{
    SystemConfig config;
    config.iterations = 0;
    EXPECT_TRUE(hasError(config.validate(), "iterations"));
}

TEST(Validate, RejectsNegativeWarmup)
{
    SystemConfig config;
    config.warmup = -1;
    EXPECT_TRUE(hasError(config.validate(), "warmup"));
}

TEST(Validate, RejectsEmptySteadyStateWindow)
{
    SystemConfig config;
    config.iterations = 4;
    config.warmup = 3; // iterations must exceed warmup + 1
    EXPECT_TRUE(hasError(config.validate(), "warmup"));

    config.iterations = 5;
    EXPECT_TRUE(config.validate().ok());
}

TEST(Validate, RejectsGpuSubsetSizeMismatch)
{
    SystemConfig config;
    config.gpuCount = 4;
    config.gpuSubset = {0, 1}; // two labels for four GPUs
    EXPECT_TRUE(hasError(config.validate(), "gpuSubset"));

    config.gpuSubset = {4, 5, 6, 7};
    EXPECT_TRUE(config.validate().ok());
}

TEST(Validate, RejectsNegativeGpuSubsetOrdinal)
{
    SystemConfig config;
    config.gpuCount = 2;
    config.gpuSubset = {0, -3};
    EXPECT_TRUE(hasError(config.validate(), "gpuSubset[1]"));
}

TEST(Validate, RejectsEnvelopeCountMismatch)
{
    SystemConfig config;
    config.gpuCount = 4;
    config.envelopes.resize(2); // must cover every GPU
    EXPECT_TRUE(hasError(config.validate(), "envelopes"));

    config.envelopes.resize(4);
    EXPECT_TRUE(config.validate().ok());
}

TEST(Validate, RejectsEnvelopeSharesOutsideUnitInterval)
{
    SystemConfig config;
    config.gpuCount = 2;
    config.envelopes.resize(2);
    config.envelopes[0].sm = 0.0; // shares live in (0, 1]
    config.envelopes[1].bw = 1.5;
    const auto result = config.validate();
    EXPECT_TRUE(hasError(result, "envelopes[0].sm"));
    EXPECT_TRUE(hasError(result, "envelopes[1].bw"));
    EXPECT_FALSE(hasError(result, "envelopes[0].bw"));
    EXPECT_FALSE(hasError(result, "envelopes[1].sm"));
}

TEST(Validate, RejectsClusterSpecGpuCountMismatch)
{
    SystemConfig config;
    config.gpuCount = 4;
    sim::ClusterSpec spec;
    spec.gpuCount = 8;
    config.clusterSpec = spec;
    EXPECT_TRUE(hasError(config.validate(), "clusterSpec"));

    config.clusterSpec->gpuCount = 4;
    EXPECT_TRUE(config.validate().ok());
}

TEST(Validate, RejectsNegativeRowWiseThreshold)
{
    SystemConfig config;
    config.rowWiseThreshold = -1;
    EXPECT_TRUE(hasError(config.validate(), "rowWiseThreshold"));
}

TEST(Validate, AccumulatesEveryProblemAtOnce)
{
    SystemConfig config;
    config.gpuCount = 0;
    config.batchPerGpu = -1;
    config.iterations = 0;
    config.rowWiseThreshold = -1;
    const auto result = config.validate();
    EXPECT_FALSE(result.ok());
    EXPECT_GE(result.errors().size(), 4u);
    // render() lists one "field: message" line per error.
    const std::string rendered = result.render();
    EXPECT_NE(rendered.find("gpuCount:"), std::string::npos);
    EXPECT_NE(rendered.find("batchPerGpu:"), std::string::npos);
    EXPECT_NE(rendered.find("iterations:"), std::string::npos);
    EXPECT_NE(rendered.find("rowWiseThreshold:"), std::string::npos);
}

/** A valid 2-GPU RAP config carrying @p event as its only fault. */
SystemConfig
withFault(sim::FaultEvent event)
{
    SystemConfig config;
    config.system = System::Rap;
    config.gpuCount = 2;
    config.faults = sim::FaultSpec{};
    config.faults->events.push_back(event);
    return config;
}

TEST(Validate, RejectsBadFaultSpecs)
{
    const struct
    {
        sim::FaultEvent event;
        const char *field;
    } cases[] = {
        {sim::FaultEvent::smDegrade(5, 0.0, 0.5),
         "faults.events[0].device"},
        {sim::FaultEvent::smDegrade(0, 0.0, 1.5),
         "faults.events[0].factor"},
        {sim::FaultEvent::hbmDegrade(0, -1.0, 0.5),
         "faults.events[0].time"},
        {sim::FaultEvent::transientKernel(0, 0.0, 1.0, 2.0),
         "faults.events[0].probability"},
        {sim::FaultEvent::transientKernel(0, 1.0, 1.0, 0.5),
         "faults.events[0].until"},
    };
    for (const auto &c : cases) {
        const auto result = withFault(c.event).validate();
        EXPECT_TRUE(hasError(result, c.field))
            << c.field << "\n" << result.render();
    }

    auto config = withFault(sim::FaultEvent::smDegrade(-1, 0.0, 0.5));
    EXPECT_TRUE(config.validate().ok()) << config.validate().render();
    config.faults->retry.maxAttempts = 0;
    EXPECT_TRUE(hasError(config.validate(), "faults.retry.maxAttempts"));
}

TEST(RunRequestDeathTest, BadFaultSpecExitsBeforePlanning)
{
    // The spec is checked with the request: run() exits with the field
    // named instead of planning and then asserting inside the DES.
    const RunRequest request(
        withFault(sim::FaultEvent::smDegrade(5, 0.0, 0.5)));
    EXPECT_EXIT(request.run(preproc::makePlan(0)),
                testing::ExitedWithCode(1),
                "faults\\.events\\[0\\]\\.device");
}

/**
 * A hand-built plan over one dense and one sparse feature (mean list
 * length 6): a FillNull on the dense feature, and a FirstX that reads
 * sparse column @p sparse_column and feeds feature @p sparse_feature.
 */
preproc::PreprocPlan
handBuiltPlan(std::size_t sparse_column, int sparse_feature)
{
    data::Schema schema;
    schema.addDense("d");
    schema.addSparse("s", 1000, 6.0);
    preproc::PreprocPlan plan;
    plan.graph = preproc::PreprocGraph(schema);
    preproc::OpNode dense;
    dense.type = preproc::OpType::FillNull;
    dense.featureId = 0;
    dense.inputs = {{data::FeatureKind::Dense, 0}};
    plan.graph.addNode(dense);
    preproc::OpNode sparse;
    sparse.type = preproc::OpType::FirstX;
    sparse.featureId = sparse_feature;
    sparse.inputs = {{data::FeatureKind::Sparse, sparse_column}};
    plan.graph.addNode(sparse);
    return plan;
}

RunRequest
twoGpuRap()
{
    RunRequest request(System::Rap);
    request.gpus(2).batchPerGpu(1024).iterations(6, 1);
    return request;
}

TEST(RunRequestDeathTest, OutOfRangeInputColumnExitsBeforePlanning)
{
    // Priced as a list length of 1.0 before the graph was checked.
    EXPECT_EXIT(twoGpuRap().run(handBuiltPlan(7, 1)),
                testing::ExitedWithCode(1),
                "graph\\.nodes\\[1\\]\\.inputs\\[0\\]: sparse column 7 "
                "is out of range");
}

TEST(RunRequestDeathTest, OutOfRangeFeatureIdExitsBeforePlanning)
{
    // Panicked in the embedding sharding before the graph was checked.
    EXPECT_EXIT(twoGpuRap().run(handBuiltPlan(0, 9)),
                testing::ExitedWithCode(1),
                "graph\\.nodes\\[1\\]\\.featureId: feature id 9 is out "
                "of range");
}

TEST(RunRequest, BuilderPlumbsEveryField)
{
    obs::MetricRegistry registry;
    const auto config = RunRequest(System::Rap)
                            .gpus(4)
                            .batchPerGpu(2048)
                            .iterations(10, 2)
                            .metrics(&registry, "test.scope")
                            .config();
    EXPECT_EQ(config.system, System::Rap);
    EXPECT_EQ(config.gpuCount, 4);
    EXPECT_EQ(config.batchPerGpu, 2048);
    EXPECT_EQ(config.iterations, 10);
    EXPECT_EQ(config.warmup, 2);
    EXPECT_EQ(config.metrics, &registry);
    EXPECT_EQ(config.metricsScope, "test.scope");
}

TEST(RunRequest, WrapsAnExistingConfig)
{
    SystemConfig base;
    base.system = System::Mps;
    base.gpuCount = 2;
    RunRequest request(base);
    EXPECT_EQ(request.config().system, System::Mps);
    request.gpus(8);
    EXPECT_EQ(request.config().gpuCount, 8);
}

TEST(RunRequest, ValidateReportsWithoutExiting)
{
    RunRequest request(System::Rap);
    request.gpus(0);
    const auto result = request.validate();
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(hasError(result, "gpuCount"));
}

TEST(RunRequestDeathTest, RunExitsOnInvalidConfig)
{
    RunRequest request(System::Rap);
    request.gpus(-1);
    EXPECT_EXIT(request.run(preproc::makePlan(0)),
                testing::ExitedWithCode(1),
                "invalid run configuration");
}

TEST(RunRequest, TracePathLeavesReportsByteIdentical)
{
    // An untraced run integrates utilisation as it goes and keeps no
    // segments; a traced run keeps them for the export. Both must
    // report the same bytes.
    auto base = [](System system) {
        SystemConfig config;
        config.system = system;
        config.gpuCount = 2;
        config.batchPerGpu = 1024;
        config.iterations = 6;
        config.warmup = 1;
        return config;
    };
    std::vector<SystemConfig> configs = {base(System::Rap),
                                         base(System::Mps)};
    {
        auto config = base(System::Rap);
        config.checkpoint.mode = CheckpointMode::FixedInterval;
        config.checkpoint.interval = 2;
        config.checkpoint.jobIterations = 1000;
        configs.push_back(config);
    }
    {
        auto config = base(System::Rap);
        sim::FaultSpec faults;
        faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.0, 0.5));
        faults.events.push_back(sim::FaultEvent::transientKernel(
            -1, 0.0, std::numeric_limits<Seconds>::infinity(), 0.2));
        config.faults = faults;
        config.replanOnDrift = true;
        configs.push_back(config);
    }
    const auto plan = preproc::makePlan(0);
    const std::string path =
        ::testing::TempDir() + "rap_trace_path_report_test.json";
    for (const auto &config : configs) {
        const auto plain = RunRequest(config).run(plan);
        RunRequest traced_request(config);
        traced_request.config().tracePath = path;
        const auto traced = traced_request.run(plan);
        EXPECT_GT(plain.avgSmUtil, 0.0);
        if (config.replanOnDrift) {
            EXPECT_GE(plain.replans, 1);
        }
        EXPECT_EQ(plain.toJson().dump(), traced.toJson().dump())
            << systemName(config.system);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace rap::core
