/**
 * @file
 * Checkpoint/restore unit tests: the analytic recovery composer
 * against hand-computed timelines, the Young-Daly interval, the
 * checkpoint image sizes, checkpoint-policy validation, and the
 * exact recovery fields in the RunReport JSON. The end-to-end
 * crash runs live in test_crash_recovery (slow).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/run_request.hpp"
#include "dlrm/model_config.hpp"
#include "dlrm/sharding.hpp"

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

TEST(ComposeRecovery, CrashFreeWithoutCheckpointsIsJustTheWork)
{
    const auto out = composeRecovery(1.0, 0.5, 0.5, 2.0, 10, 0, {});
    EXPECT_DOUBLE_EQ(out.completion, 10.0);
    EXPECT_DOUBLE_EQ(out.lostWork, 0.0);
    EXPECT_DOUBLE_EQ(out.checkpointOverhead, 0.0);
    EXPECT_EQ(out.recoveries, 0);
    EXPECT_EQ(out.checkpoints, 0);
    EXPECT_EQ(out.lostBatches, 0);
}

TEST(ComposeRecovery, TrailingCheckpointIsSkipped)
{
    // 10 iterations at 1s, checkpoint every 4 at 0.5s: seals after
    // iterations 4 and 8; the one at job end protects nothing.
    const auto out = composeRecovery(1.0, 0.5, 0.5, 2.0, 10, 4, {});
    EXPECT_EQ(out.checkpoints, 2);
    EXPECT_DOUBLE_EQ(out.checkpointOverhead, 1.0);
    EXPECT_DOUBLE_EQ(out.completion, 11.0);
    EXPECT_EQ(out.recoveries, 0);
}

TEST(ComposeRecovery, CrashWithoutCheckpointRestartsFromScratch)
{
    // Crash at 3.5s: 3 whole iterations discarded, recovery is the
    // bare restart (no image to restore), then all 10 replay.
    const auto out =
        composeRecovery(1.0, 0.0, 0.5, 2.0, 10, 0, {3.5});
    EXPECT_DOUBLE_EQ(out.lostWork, 3.5);
    EXPECT_EQ(out.lostBatches, 3);
    EXPECT_EQ(out.recoveries, 1);
    EXPECT_DOUBLE_EQ(out.completion, 3.5 + 2.0 + 10.0);
    ASSERT_EQ(out.recoveryWindows.size(), 1u);
    EXPECT_DOUBLE_EQ(out.recoveryWindows[0].first, 3.5);
    EXPECT_DOUBLE_EQ(out.recoveryWindows[0].second, 5.5);
}

TEST(ComposeRecovery, CrashResumesFromLastSealedCheckpoint)
{
    // q=4, C=0.5: segment one seals at 4.5s (durable=4). The second
    // segment crashes at 7.0s — 2.5s and 2 iterations lost, recovery
    // is restart 2.0 + restore 0.5, replay from iteration 4.
    const auto out =
        composeRecovery(1.0, 0.5, 0.5, 2.0, 10, 4, {7.0});
    EXPECT_DOUBLE_EQ(out.lostWork, 2.5);
    EXPECT_EQ(out.lostBatches, 2);
    EXPECT_EQ(out.recoveries, 1);
    // 9.5 after recovery; replayed segment seals at 14.0; tail of 2
    // iterations ends at 16.0.
    EXPECT_DOUBLE_EQ(out.completion, 16.0);
    EXPECT_EQ(out.checkpoints, 2);
    EXPECT_DOUBLE_EQ(out.checkpointOverhead, 1.0);
    ASSERT_EQ(out.recoveryWindows.size(), 1u);
    EXPECT_DOUBLE_EQ(out.recoveryWindows[0].first, 7.0);
    EXPECT_DOUBLE_EQ(out.recoveryWindows[0].second, 9.5);
}

TEST(ComposeRecovery, CrashDuringRecoveryRestartsTheRecovery)
{
    // First crash at 3.5s opens a recovery window to 5.5s; a second
    // crash at 4.0s lands inside it and restarts the restart.
    const auto out =
        composeRecovery(1.0, 0.0, 0.5, 2.0, 5, 0, {3.5, 4.0});
    EXPECT_EQ(out.recoveries, 2);
    EXPECT_DOUBLE_EQ(out.lostWork, 4.0);
    EXPECT_DOUBLE_EQ(out.completion, 4.0 + 2.0 + 5.0);
    ASSERT_EQ(out.recoveryWindows.size(), 2u);
    EXPECT_DOUBLE_EQ(out.recoveryWindows[0].second, 4.0);
}

TEST(ComposeRecovery, CrashesAfterCompletionAreIgnored)
{
    const auto out =
        composeRecovery(1.0, 0.5, 0.5, 2.0, 10, 4, {100.0});
    EXPECT_EQ(out.recoveries, 0);
    EXPECT_DOUBLE_EQ(out.completion, 11.0);
}

TEST(YoungDaly, IntervalMatchesTheClosedForm)
{
    EXPECT_DOUBLE_EQ(youngDalyInterval(0.5, 3600.0),
                     std::sqrt(2.0 * 0.5 * 3600.0));
    EXPECT_DOUBLE_EQ(youngDalyInterval(0.0, 3600.0), 0.0);
}

TEST(CheckpointBytes, OwnedTablesPlusOneMlpReplica)
{
    data::Schema schema;
    schema.addDense("d0");
    schema.addSparse("s0", 1000, 2.0);
    schema.addSparse("s1", 4000, 1.0);
    dlrm::DlrmConfig model;
    model.schema = schema;
    model.embeddingDim = 16;
    const auto sharding = dlrm::EmbeddingSharding::balanced(schema, 2);

    Bytes total_rows = 0.0;
    for (int g = 0; g < 2; ++g) {
        const Bytes bytes = checkpointBytesPerGpu(model, sharding, g);
        EXPECT_GT(bytes, 0.0);
        total_rows += bytes;
    }
    // Across all GPUs the image covers every row once plus exactly
    // one MLP replica (the data-parallel weights are identical).
    const Bytes expected = (1000.0 + 4000.0) * 16.0 * 4.0 +
                           model.mlpParameterCount() * 4.0;
    EXPECT_DOUBLE_EQ(total_rows, expected);
}

TEST(CheckpointBytes, RowWiseTablesSplitEvenly)
{
    data::Schema schema;
    schema.addSparse("s0", 4000, 1.0);
    dlrm::DlrmConfig model;
    model.schema = schema;
    model.embeddingDim = 16;
    // Threshold below the hash size: the table goes row-wise.
    const auto sharding =
        dlrm::EmbeddingSharding::balancedWithRowWise(schema, 4, 1000);
    ASSERT_TRUE(sharding.isRowWise(0));
    for (int g = 1; g < 4; ++g) {
        EXPECT_DOUBLE_EQ(checkpointBytesPerGpu(model, sharding, g),
                         4000.0 / 4.0 * 16.0 * 4.0);
    }
}

TEST(PredictCheckpointCost, WorstGpuOverThePcieLink)
{
    data::Schema schema;
    schema.addSparse("s0", 1 << 20, 1.0);
    dlrm::DlrmConfig model;
    model.schema = schema;
    model.embeddingDim = 32;
    const auto sharding = dlrm::EmbeddingSharding::balanced(schema, 1);
    const auto cluster = sim::dgxA100Spec(1);
    const Seconds cost =
        predictCheckpointCost(cluster, model, sharding);
    const Bytes image = checkpointBytesPerGpu(model, sharding, 0);
    EXPECT_DOUBLE_EQ(cost, image / cluster.pcieBandwidth +
                               cluster.pcieLatency);
}

TEST(Validate, RejectsBadCheckpointPolicies)
{
    SystemConfig config;
    config.checkpoint.mode = CheckpointMode::FixedInterval;
    config.checkpoint.interval = 0;
    EXPECT_TRUE(hasError(config.validate(), "checkpoint.interval"));

    config = SystemConfig();
    config.checkpoint.mode = CheckpointMode::YoungDaly;
    EXPECT_TRUE(hasError(config.validate(), "checkpoint.mtbf"));
    config.checkpoint.mtbf = 600.0;
    EXPECT_TRUE(config.validate().ok());

    config = SystemConfig();
    config.checkpoint.restartOverhead = -1.0;
    EXPECT_TRUE(
        hasError(config.validate(), "checkpoint.restartOverhead"));

    config = SystemConfig();
    config.checkpoint.jobIterations = -1;
    EXPECT_TRUE(
        hasError(config.validate(), "checkpoint.jobIterations"));
}

TEST(ReportJson, RecoveryFieldsRoundTripExactly)
{
    RunReport report;
    report.system = "rap";
    report.lostWork = 12.34567890123;
    report.checkpointOverhead = 0.00123456789;
    report.recoveries = 7;
    // The written text parses back to the exact doubles.
    const std::string text = report.toJson().dump(2);
    std::string error;
    const Json reparsed = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(reparsed.at("lostWork").asDouble(), report.lostWork);
    EXPECT_EQ(reparsed.at("checkpointOverhead").asDouble(),
              report.checkpointOverhead);
    EXPECT_EQ(reparsed.at("recoveries").asDouble(), report.recoveries);
    EXPECT_EQ(reparsed.dump(2), text);
}

} // namespace
} // namespace rap::core
