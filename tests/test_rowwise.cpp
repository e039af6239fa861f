/**
 * @file
 * Tests for row-wise parallel embedding tables and the preprocessing
 * duplication they imply (§7.2's multi-consumer case).
 */

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/run_request.hpp"

namespace rap {
namespace {

data::Schema
schema()
{
    return data::makePresetSchema(data::DatasetPreset::CriteoTerabyte);
}

/** Threshold that catches only the single largest table. */
std::int64_t
thresholdForLargestTable()
{
    return schema().sparse(0).hashSize;
}

TEST(RowWiseSharding, MarksLargeTables)
{
    const auto s = schema();
    const auto sharding = dlrm::EmbeddingSharding::balancedWithRowWise(
        s, 4, thresholdForLargestTable());
    EXPECT_TRUE(sharding.isRowWise(0));
    for (std::size_t t = 1; t < s.sparseCount(); ++t)
        EXPECT_FALSE(sharding.isRowWise(t));
}

TEST(RowWiseSharding, RowWiseTableHasAllConsumers)
{
    const auto sharding = dlrm::EmbeddingSharding::balancedWithRowWise(
        schema(), 4, thresholdForLargestTable());
    EXPECT_EQ(sharding.consumersOf(0), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sharding.consumersOf(1).size(), 1u);
}

TEST(RowWiseShardingDeath, OwnerOfRowWiseTablePanics)
{
    const auto sharding = dlrm::EmbeddingSharding::balancedWithRowWise(
        schema(), 4, thresholdForLargestTable());
    EXPECT_DEATH((void)sharding.owner(0), "no single owner");
}

TEST(RowWiseSharding, AppearsInEveryGpusTableList)
{
    const auto sharding = dlrm::EmbeddingSharding::balancedWithRowWise(
        schema(), 4, thresholdForLargestTable());
    for (int g = 0; g < 4; ++g) {
        const auto tables = sharding.tablesOf(g);
        EXPECT_NE(std::find(tables.begin(), tables.end(), 0u),
                  tables.end());
    }
}

TEST(RowWiseSharding, LookupWorkSpreadsAcrossGpus)
{
    const auto s = schema();
    const auto plain = dlrm::EmbeddingSharding::balanced(s, 4);
    const auto rw = dlrm::EmbeddingSharding::balancedWithRowWise(
        s, 4, thresholdForLargestTable());
    // Total lookup work is conserved.
    double plain_total = 0.0;
    double rw_total = 0.0;
    for (double w : plain.lookupWorkPerGpu(s))
        plain_total += w;
    for (double w : rw.lookupWorkPerGpu(s))
        rw_total += w;
    EXPECT_NEAR(plain_total, rw_total, 1e-9);
}

TEST(RowWiseMapping, DataLocalityDuplicatesTheFeature)
{
    const auto plan = preproc::makePlan(1);
    const auto cluster_spec = sim::dgxA100Spec(4);
    const auto sharding = dlrm::EmbeddingSharding::balancedWithRowWise(
        plan.graph.schema(), 4, plan.graph.schema().sparse(0).hashSize);
    core::GraphMapper mapper(plan, sharding, cluster_spec, 4096);

    const auto dl = mapper.map(core::MappingStrategy::DataLocality);
    // The row-wise feature contributes 4 batches x 4 consumers copies
    // instead of 4: total items = features*4 + 4*(4-1).
    EXPECT_EQ(dl.totalItems(),
              plan.graph.schema().featureCount() * 4 + 4u * 3u);
    // Duplication keeps everything local: no communication.
    for (Bytes b : dl.commOutBytes)
        EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(RowWiseMapping, DataParallelMustBroadcast)
{
    const auto plan = preproc::makePlan(1);
    const auto cluster_spec = sim::dgxA100Spec(4);
    const auto plain_sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 4);
    const auto rw_sharding =
        dlrm::EmbeddingSharding::balancedWithRowWise(
            plan.graph.schema(), 4, plan.graph.schema().sparse(0).hashSize);
    core::GraphMapper plain(plan, plain_sharding, cluster_spec, 4096);
    core::GraphMapper rw(plan, rw_sharding, cluster_spec, 4096);

    auto total = [](const core::GraphMapping &m) {
        Bytes sum = 0.0;
        for (Bytes b : m.commOutBytes)
            sum += b;
        return sum;
    };
    // Under DP, the row-wise feature must reach 3 extra consumers per
    // batch: strictly more communication than the sharded layout.
    EXPECT_GT(total(rw.map(core::MappingStrategy::DataParallel)),
              total(plain.map(core::MappingStrategy::DataParallel)));
}

TEST(RowWiseMapping, ConsumersRouting)
{
    const auto plan = preproc::makePlan(1);
    const auto cluster_spec = sim::dgxA100Spec(4);
    const auto sharding = dlrm::EmbeddingSharding::balancedWithRowWise(
        plan.graph.schema(), 4, plan.graph.schema().sparse(0).hashSize);
    core::GraphMapper mapper(plan, sharding, cluster_spec, 4096);

    const int rw_feature = preproc::sparseFeatureId(plan.graph.schema(), 0);
    EXPECT_EQ(mapper.consumers(core::WorkItem{rw_feature, 2}).size(),
              4u);
    EXPECT_EQ(mapper.consumers(core::WorkItem{0, 2}),
              (std::vector<int>{2}));
}

TEST(RowWisePipeline, EndToEndRunsAndStaysNearIdeal)
{
    const auto plan = preproc::makePlan(1);
    core::SystemConfig config;
    config.gpuCount = 4;
    config.iterations = 8;
    config.warmup = 2;
    config.rowWiseThreshold = plan.graph.schema().sparse(0).hashSize;

    config.system = core::System::Ideal;
    const auto ideal = core::RunRequest(config).run(plan);
    config.system = core::System::Rap;
    const auto rap = core::RunRequest(config).run(plan);
    EXPECT_GT(rap.throughput, 0.9 * ideal.throughput);
}

} // namespace
} // namespace rap
