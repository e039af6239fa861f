/**
 * @file
 * Tests for the Chrome-tracing exporter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/run_request.hpp"
#include "preproc/plan.hpp"
#include "sim/trace_export.hpp"

namespace rap::sim {
namespace {

Cluster &
sampleCluster()
{
    static auto *cluster = [] {
        auto *c = new Cluster(dgxA100Spec(2));
        auto &a = c->device(0).newStream("train");
        auto &b = c->device(0).newStream("preproc", 1, 1);
        a.pushKernel(KernelDesc::synthetic("mlp_fwd", 100e-6,
                                           {0.8, 0.2}));
        b.pushKernel(KernelDesc::synthetic("fused_hash", 50e-6,
                                           {0.1, 0.1}));
        c->device(1).newStream("train").pushKernel(
            KernelDesc::synthetic("emb_lookup", 200e-6, {0.2, 0.7}));
        c->run();
        return c;
    }();
    return *cluster;
}

TEST(TraceExport, ContainsKernelAndStreamNames)
{
    const auto json = toChromeTraceJson(sampleCluster());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("mlp_fwd"), std::string::npos);
    EXPECT_NE(json.find("fused_hash"), std::string::npos);
    EXPECT_NE(json.find("emb_lookup"), std::string::npos);
    EXPECT_NE(json.find("\"GPU 0\""), std::string::npos);
    EXPECT_NE(json.find("\"GPU 1\""), std::string::npos);
    EXPECT_NE(json.find("preproc"), std::string::npos);
}

TEST(TraceExport, EmitsCompleteEventsWithDurations)
{
    const auto json = toChromeTraceJson(sampleCluster());
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"stretch_us\":"), std::string::npos);
}

TEST(TraceExport, BalancedJsonStructure)
{
    const auto json = toChromeTraceJson(sampleCluster());
    int depth = 0;
    int brackets = 0;
    for (char c : json) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        if (c == '[') ++brackets;
        if (c == ']') --brackets;
        ASSERT_GE(depth, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(TraceExport, WritesFile)
{
    const std::string path = "/tmp/rap_trace_test.json";
    writeChromeTrace(sampleCluster(), path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("traceEvents"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceExport, TracedRunKeepsKernelRecords)
{
    // A run keeps kernel records and utilisation segments only when it
    // writes a trace; this one does, so the trace carries the run's
    // kernels and its utilisation counters.
    const std::string path =
        ::testing::TempDir() + "rap_traced_run_test.json";
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 2;
    config.iterations = 4;
    config.warmup = 1;
    config.tracePath = path;
    core::RunRequest(config).run(preproc::makePlan(0));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(content.find("\"name\":\"utilisation\""),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace rap::sim
