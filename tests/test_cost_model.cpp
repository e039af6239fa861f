/**
 * @file
 * Tests for the preprocessing kernel/CPU cost models: monotonicity and
 * relative-magnitude properties the scheduler depends on.
 */

#include <gtest/gtest.h>

#include "preproc/cost_model.hpp"
#include "preproc/plan.hpp"
#include "sim/gpu_spec.hpp"

namespace rap::preproc {
namespace {

OpShape
shapeOf(std::int64_t rows, int width, double len, double param = 0.0)
{
    OpShape shape;
    shape.rows = rows;
    shape.width = width;
    shape.avgListLength = len;
    shape.param = param;
    return shape;
}

class AllOpsTest : public ::testing::TestWithParam<OpType>
{
  protected:
    sim::GpuSpec spec_ = sim::a100Spec();
};

TEST_P(AllOpsTest, ProfileComponentsNonNegative)
{
    const auto p = opKernelProfile(GetParam(), shapeOf(4096, 4, 3, 4));
    EXPECT_GE(p.flops, 0.0);
    EXPECT_GT(p.bytes, 0.0);
    EXPECT_GT(p.warps, 0.0);
}

TEST_P(AllOpsTest, KernelDemandWithinBounds)
{
    const auto desc =
        makeOpKernel(GetParam(), shapeOf(8192, 64, 6, 4), spec_);
    EXPECT_GE(desc.demand.sm, 0.0);
    EXPECT_LE(desc.demand.sm, 1.0);
    EXPECT_GE(desc.demand.bw, 0.0);
    EXPECT_LE(desc.demand.bw, 1.0);
    EXPECT_GT(desc.exclusiveLatency, 0.0);
}

TEST_P(AllOpsTest, LatencyMonotoneInWidth)
{
    const auto narrow =
        makeOpKernel(GetParam(), shapeOf(4096, 1, 4, 4), spec_);
    const auto wide =
        makeOpKernel(GetParam(), shapeOf(4096, 128, 4, 4), spec_);
    EXPECT_GE(wide.exclusiveLatency, narrow.exclusiveLatency);
    EXPECT_GE(wide.demand.sm, narrow.demand.sm);
}

TEST_P(AllOpsTest, LatencyMonotoneInRows)
{
    const auto small =
        makeOpKernel(GetParam(), shapeOf(1024, 32, 4, 4), spec_);
    const auto large =
        makeOpKernel(GetParam(), shapeOf(16384, 32, 4, 4), spec_);
    EXPECT_GE(large.exclusiveLatency, small.exclusiveLatency);
}

TEST_P(AllOpsTest, LatencyFloorApplies)
{
    const auto tiny =
        makeOpKernel(GetParam(), shapeOf(16, 1, 1, 2), spec_);
    EXPECT_GE(tiny.exclusiveLatency, 6e-6);
}

TEST_P(AllOpsTest, CpuCostsExceedGpuCosts)
{
    const auto shape = shapeOf(4096, 1, 4, 4);
    const auto desc = makeOpKernel(GetParam(), shape, spec_);
    EXPECT_GT(opCpuSeconds(GetParam(), shape), desc.exclusiveLatency);
}

TEST_P(AllOpsTest, ByteAccountingPositive)
{
    const auto shape = shapeOf(4096, 8, 4, 4);
    EXPECT_GT(opInputBytes(GetParam(), shape), 0.0);
    EXPECT_GT(opOutputBytes(GetParam(), shape), 0.0);
    EXPECT_GT(opPrepCpuSeconds(GetParam(), shape), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllOps, AllOpsTest,
                         ::testing::ValuesIn(allOpTypes()),
                         [](const auto &param_info) {
                             return opTypeName(param_info.param);
                         });

TEST(CostModel, NgramHeavierThanNormalisation)
{
    const auto shape = shapeOf(4096, 32, 8, 3);
    const auto ngram = opKernelProfile(OpType::Ngram, shape);
    const auto logit = opKernelProfile(OpType::Logit, shape);
    EXPECT_GT(ngram.flops, logit.flops);
}

TEST(CostModel, NgramCpuCostScalesWithN)
{
    const auto bigram = shapeOf(4096, 1, 8, 2);
    const auto fourgram = shapeOf(4096, 1, 8, 4);
    EXPECT_GT(opCpuSeconds(OpType::Ngram, fourgram),
              opCpuSeconds(OpType::Ngram, bigram));
}

TEST(CostModel, FirstXOutputSmallerThanInput)
{
    const auto shape = shapeOf(4096, 4, 10, 2); // keep 2 of 10
    EXPECT_LT(opOutputBytes(OpType::FirstX, shape),
              opInputBytes(OpType::FirstX, shape));
}

TEST(CostModel, PerfParamExtraction)
{
    OpParams params;
    params.ngramN = 3;
    params.firstX = 5;
    params.onehotBins = 32;
    params.bucketBorders = 12;
    EXPECT_DOUBLE_EQ(opPerfParam(OpType::Ngram, params), 3.0);
    EXPECT_DOUBLE_EQ(opPerfParam(OpType::FirstX, params), 5.0);
    EXPECT_DOUBLE_EQ(opPerfParam(OpType::Onehot, params), 32.0);
    EXPECT_DOUBLE_EQ(opPerfParam(OpType::Bucketize, params), 12.0);
    EXPECT_DOUBLE_EQ(opPerfParam(OpType::SigridHash, params), 0.0);
}

TEST(CostModel, FusionAmortisesLaunchFloor)
{
    // One fused kernel of width 26 is cheaper than 26 singles.
    const auto spec = sim::a100Spec();
    const auto single =
        makeOpKernel(OpType::FillNull, shapeOf(4096, 1, 1), spec);
    const auto fused =
        makeOpKernel(OpType::FillNull, shapeOf(4096, 26, 1), spec);
    EXPECT_LT(fused.exclusiveLatency, 26 * single.exclusiveLatency);
}

TEST(OpTypes, NamesAndCategories)
{
    EXPECT_EQ(opTypeName(OpType::SigridHash), "SigridHash");
    EXPECT_EQ(opCategory(OpType::Logit), OpCategory::DenseNorm);
    EXPECT_EQ(opCategory(OpType::FirstX), OpCategory::SparseNorm);
    EXPECT_EQ(opCategory(OpType::Ngram), OpCategory::FeatureGen);
    EXPECT_EQ(opCategory(OpType::Cast), OpCategory::Other);
    EXPECT_EQ(allOpTypes().size(), kOpTypeCount);
}

TEST(OpTypes, PredictorCategoriesMatchTable5)
{
    EXPECT_EQ(predictorCategory(OpType::Ngram),
              PredictorCategory::Ngram);
    EXPECT_EQ(predictorCategory(OpType::FirstX),
              PredictorCategory::FirstX);
    EXPECT_EQ(predictorCategory(OpType::Onehot),
              PredictorCategory::Onehot);
    EXPECT_EQ(predictorCategory(OpType::Bucketize),
              PredictorCategory::Bucketize);
    EXPECT_EQ(predictorCategory(OpType::Logit),
              PredictorCategory::OneDimensional);
    EXPECT_EQ(predictorCategory(OpType::SigridHash),
              PredictorCategory::OneDimensional);
    EXPECT_EQ(predictorCategoryName(PredictorCategory::OneDimensional),
              "1D Ops");
}

TEST(Executor, NodeShapeReflectsSchema)
{
    const auto plan = makePlan(1);
    const auto sparse_nodes =
        plan.graph.featureNodes(sparseFeatureId(plan.graph.schema(), 4));
    const auto shape = nodeShape(plan.graph.node(sparse_nodes.front()),
                                 plan.graph.schema(), 4096);
    EXPECT_EQ(shape.rows, 4096);
    EXPECT_EQ(shape.width, 1);
    EXPECT_DOUBLE_EQ(shape.avgListLength,
                     plan.graph.schema().sparse(4).avgListLength);
}

TEST(Executor, NgramShapeAccountsForAllInputs)
{
    const auto plan = makePlan(1);
    OpNode ngram;
    ngram.type = OpType::Ngram;
    ngram.inputs = {ColumnRef{data::FeatureKind::Sparse, 4},
                    ColumnRef{data::FeatureKind::Sparse, 5}};
    ngram.featureId = sparseFeatureId(plan.graph.schema(), 4);
    const auto shape = nodeShape(ngram, plan.graph.schema(), 4096);
    EXPECT_DOUBLE_EQ(shape.avgListLength,
                     plan.graph.schema().sparse(4).avgListLength * 2.0);
}

TEST(Executor, GraphExclusiveLatencyScalesWithPlanSize)
{
    const auto spec = sim::a100Spec();
    const Seconds small =
        graphExclusiveLatency(makePlan(0).graph, 4096, spec);
    const Seconds large =
        graphExclusiveLatency(makePlan(3).graph, 4096, spec);
    EXPECT_GT(small, 0.0);
    EXPECT_GT(large, 3.0 * small);
}

TEST(Executor, GraphExclusiveLatencyScalesWithBatch)
{
    const auto spec = sim::a100Spec();
    const auto plan = makePlan(2);
    EXPECT_GE(graphExclusiveLatency(plan.graph, 65536, spec),
              graphExclusiveLatency(plan.graph, 1024, spec));
}

TEST(NodeShapeDeathTest, SparseInputOutsideTheSchemaPanics)
{
    // No fallback list length: a column outside the schema is a bug
    // that PreprocGraph::validate reports before any run prices it.
    const auto plan = makePlan(1);
    OpNode node;
    node.type = OpType::FirstX;
    node.inputs = {ColumnRef{data::FeatureKind::Sparse,
                             plan.graph.schema().sparseCount()}};
    node.featureId = 0;
    EXPECT_DEATH(nodeShape(node, plan.graph.schema(), 4096),
                 "reads sparse column 26 of 26");
}

} // namespace
} // namespace rap::preproc
