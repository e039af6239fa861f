/**
 * @file
 * Golden-file check of RunReport::toJson() across every system and the
 * run-harness variants that change how a run is assembled: ingest
 * gating, checkpoints with a composed crash, faults with online
 * replanning, envelope-shared GPU subsets, hybrid CPU offload, and
 * inference. Any refactor of the run harness must keep these bytes.
 *
 * Regenerate the golden file after an intentional change with:
 *
 *   RAP_REGEN_GOLDEN=1 ./build/tests/test_run_reports
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_request.hpp"

namespace rap::core {
namespace {

/** Plan 0 at 2 GPUs, 6 iterations, warmup 1: the shared base run. */
SystemConfig
baseConfig(System system)
{
    SystemConfig config;
    config.system = system;
    config.gpuCount = 2;
    config.batchPerGpu = 1024;
    config.iterations = 6;
    config.warmup = 1;
    return config;
}

/** Ingest knobs sized so a 6-iteration run is input-bound. */
ingest::IngestConfig
gatingIngest()
{
    ingest::IngestConfig config;
    config.streams = 2;
    config.duration = 0.02;
    config.profile.eventsPerSec = 20000.0;
    config.stagingEventsPerSec = 100000.0;
    config.batchRows = 64;
    return config;
}

/** FixedInterval checkpoints plus one device crash in a longer job. */
SystemConfig
checkpointed(System system)
{
    auto config = baseConfig(system);
    config.checkpoint.mode = CheckpointMode::FixedInterval;
    config.checkpoint.interval = 2;
    config.checkpoint.jobIterations = 1000;
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::deviceCrash(1, 0.25));
    config.faults = faults;
    return config;
}

struct GoldenCase
{
    std::string name;
    SystemConfig config;
    /** Plan tweak applied on top of Plan 0 (may be empty). */
    std::function<void(preproc::PreprocPlan &)> stress;
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (auto system :
         {System::Ideal, System::Rap, System::RapNoMapping,
          System::RapNoFusion, System::HorizontalFusionOnly,
          System::HybridRap, System::CudaStream, System::Mps,
          System::SequentialGpu, System::TorchArrowCpu}) {
        cases.push_back({systemId(system), baseConfig(system), {}});
    }
    for (auto system : {System::Ideal, System::Rap, System::Mps}) {
        auto config = baseConfig(system);
        config.ingest = gatingIngest();
        cases.push_back({systemId(system) + "+ingest", config, {}});
    }
    for (auto system :
         {System::Ideal, System::Rap, System::TorchArrowCpu}) {
        cases.push_back({systemId(system) + "+checkpoint",
                         checkpointed(system),
                         {}});
    }
    {
        auto config = baseConfig(System::Rap);
        sim::FaultSpec faults;
        faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.0, 0.5));
        faults.events.push_back(sim::FaultEvent::transientKernel(
            -1, 0.0, std::numeric_limits<Seconds>::infinity(), 0.2));
        config.faults = faults;
        config.replanOnDrift = true;
        cases.push_back({"rap+faults_replan", config, {}});
    }
    {
        auto config = baseConfig(System::Rap);
        config.envelopes = {GpuEnvelope{0.6, 0.8}, GpuEnvelope{0.5, 0.5}};
        config.gpuSubset = {4, 6};
        cases.push_back({"rap+envelopes_subset", config, {}});
    }
    cases.push_back({"hybrid_rap+ngram_stress",
                     baseConfig(System::HybridRap),
                     [](preproc::PreprocPlan &plan) {
                         preproc::addNgramStress(plan, 3328);
                     }});
    for (auto system : {System::Ideal, System::Rap}) {
        auto config = baseConfig(system);
        config.inference = true;
        cases.push_back({systemId(system) + "+inference", config, {}});
    }
    return cases;
}

TEST(RunReportsGolden, EveryCaseMatchesGoldenFile)
{
    Json actual = Json::object();
    for (const auto &golden_case : goldenCases()) {
        auto plan = preproc::makePlan(0);
        if (golden_case.stress)
            golden_case.stress(plan);
        actual.set(golden_case.name,
                   RunRequest(golden_case.config).run(plan).toJson());
    }
    const std::string rendered = actual.dump(2);
    const std::string golden_path =
        std::string(RAP_TESTS_DIR) + "/golden/run_reports.json";

    if (std::getenv("RAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (regenerate with RAP_REGEN_GOLDEN=1)";
    std::ostringstream text;
    text << in.rdbuf();
    const Json expected = Json::parse(text.str());
    ASSERT_TRUE(expected.isObject()) << "unparseable " << golden_path;
    for (const auto &[name, report] : actual.members()) {
        const Json *want = expected.find(name);
        ASSERT_NE(want, nullptr) << "golden file lacks case " << name;
        EXPECT_EQ(report.dump(2), want->dump(2))
            << "run report for " << name
            << " drifted from the golden file; if the change is "
               "intentional, regenerate with RAP_REGEN_GOLDEN=1";
    }
    EXPECT_EQ(rendered, text.str())
        << "golden file cases differ from the test's case list";
}

/** The variants above must actually take the paths they name. */
TEST(RunReportsGolden, VariantsExerciseTheirPaths)
{
    auto cases = goldenCases();
    auto find = [&cases](const std::string &name) {
        for (auto &golden_case : cases) {
            if (golden_case.name == name)
                return golden_case;
        }
        ADD_FAILURE() << "no case " << name;
        return cases.front();
    };
    const auto plan = preproc::makePlan(0);

    const auto replan = RunRequest(find("rap+faults_replan").config)
                            .run(plan);
    EXPECT_GE(replan.replans, 1);
    EXPECT_GT(replan.kernelRetries, 0u);

    const auto ckpt = RunRequest(find("rap+checkpoint").config).run(plan);
    EXPECT_EQ(ckpt.recoveries, 1);
    EXPECT_GT(ckpt.checkpointOverhead, 0.0);

    // Checkpoint drains are charged by the recovery composition, not
    // by the measured iteration latency: every system's checkpointed
    // run measures the same steady iteration as its plain run.
    for (auto system :
         {System::Ideal, System::Rap, System::TorchArrowCpu}) {
        const auto id = systemId(system);
        const auto plain = RunRequest(find(id).config).run(plan);
        const auto armed =
            RunRequest(find(id + "+checkpoint").config).run(plan);
        EXPECT_NEAR(armed.avgIterationLatency, plain.avgIterationLatency,
                    1e-9 * plain.avgIterationLatency)
            << id;
    }

    auto stressed = preproc::makePlan(0);
    const auto hybrid_case = find("hybrid_rap+ngram_stress");
    hybrid_case.stress(stressed);
    auto rap_config = hybrid_case.config;
    rap_config.system = System::Rap;
    const auto hybrid = RunRequest(hybrid_case.config).run(stressed);
    const auto rap = RunRequest(rap_config).run(stressed);
    EXPECT_LT(hybrid.preprocLatencyPerIter, rap.preprocLatencyPerIter)
        << "the stressed plan must offload work to the CPU";
}

} // namespace
} // namespace rap::core
