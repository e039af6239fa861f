/**
 * @file
 * Property-based tests over all preprocessing operators: invariants
 * that must hold for arbitrary generated batches and parameters.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "data/criteo.hpp"
#include "preproc/executor.hpp"
#include "preproc/ops.hpp"
#include "preproc/plan.hpp"

namespace rap::preproc {
namespace {

using data::FeatureKind;
using data::RecordBatch;

class OpPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void
    SetUp() override
    {
        schema_ = data::makePresetSchema(
            data::DatasetPreset::CriteoKaggle);
        data::CriteoGenerator gen(schema_, GetParam());
        batch_ = gen.generate(256);
    }

    OpNode
    node(OpType type, bool dense, std::size_t index) const
    {
        OpNode n;
        n.type = type;
        n.inputs = {ColumnRef{dense ? FeatureKind::Dense
                                    : FeatureKind::Sparse,
                              index}};
        n.output = n.inputs.front();
        n.featureId = static_cast<int>(index);
        if (!dense)
            n.params.hashSize = schema_.sparse(index).hashSize;
        return n;
    }

    data::Schema schema_;
    RecordBatch batch_;
};

TEST_P(OpPropertyTest, DenseOpsPreserveRowCountAndFiniteness)
{
    for (OpType type : {OpType::FillNull, OpType::Cast, OpType::Logit,
                        OpType::BoxCox, OpType::Onehot,
                        OpType::Bucketize}) {
        auto batch = batch_;
        applyOp(node(type, true, 0), batch);
        ASSERT_EQ(batch.dense(0).size(), batch_.rows());
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            if (batch.dense(0).isValid(r)) {
                EXPECT_TRUE(std::isfinite(batch.dense(0).value(r)))
                    << opTypeName(type) << " row " << r;
            }
        }
    }
}

TEST_P(OpPropertyTest, SparseOpsPreserveRowCount)
{
    for (OpType type : {OpType::FillNull, OpType::SigridHash,
                        OpType::FirstX, OpType::Clamp, OpType::MapId,
                        OpType::Ngram}) {
        auto batch = batch_;
        applyOp(node(type, false, 2), batch);
        ASSERT_EQ(batch.sparse(2).size(), batch_.rows())
            << opTypeName(type);
    }
}

TEST_P(OpPropertyTest, ClampIsIdempotent)
{
    auto n = node(OpType::Clamp, false, 3);
    n.params.clampLo = 10;
    n.params.clampHi = 10'000;
    auto once = batch_;
    applyOp(n, once);
    auto twice = once;
    applyOp(n, twice);
    EXPECT_EQ(once.sparse(3).values(), twice.sparse(3).values());
}

TEST_P(OpPropertyTest, FillNullIsIdempotent)
{
    auto n = node(OpType::FillNull, true, 1);
    auto once = batch_;
    applyOp(n, once);
    auto twice = once;
    applyOp(n, twice);
    EXPECT_EQ(once.dense(1).values(), twice.dense(1).values());
    EXPECT_EQ(once.dense(1).nullCount(), 0u);
}

TEST_P(OpPropertyTest, FirstXNeverGrowsLists)
{
    auto n = node(OpType::FirstX, false, 4);
    n.params.firstX = 3;
    auto batch = batch_;
    applyOp(n, batch);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
        EXPECT_LE(batch.sparse(4).listLength(r), 3u);
        EXPECT_LE(batch.sparse(4).listLength(r),
                  batch_.sparse(4).listLength(r));
    }
}

TEST_P(OpPropertyTest, SigridHashRespectsEveryHashSize)
{
    for (std::int64_t hash_size : {2, 17, 1000, 33'700'000}) {
        auto n = node(OpType::SigridHash, false, 1);
        n.params.hashSize = hash_size;
        auto batch = batch_;
        applyOp(n, batch);
        for (auto id : batch.sparse(1).values()) {
            ASSERT_GE(id, 0);
            ASSERT_LT(id, hash_size);
        }
    }
}

TEST_P(OpPropertyTest, DenseOpsNeverTouchOtherColumns)
{
    auto batch = batch_;
    applyOp(node(OpType::Logit, true, 0), batch);
    EXPECT_EQ(batch.dense(1).values(), batch_.dense(1).values());
    EXPECT_EQ(batch.sparse(0).values(), batch_.sparse(0).values());
}

TEST_P(OpPropertyTest, FullPlanGraphExecutesAndNormalises)
{
    auto plan = makePlan(0);
    data::CriteoGenerator gen(plan.schema, GetParam());
    auto batch = gen.generate(128);
    applyGraph(plan.graph, batch);
    // After FillNull no dense nulls remain.
    for (std::size_t f = 0; f < batch.denseCount(); ++f)
        EXPECT_EQ(batch.dense(f).nullCount(), 0u);
    // After SigridHash + FirstX every sparse id is in its hash space
    // and every list is at most the default FirstX length.
    for (std::size_t s = 0; s < batch.sparseCount(); ++s) {
        const auto hash_size = plan.schema.sparse(s).hashSize;
        for (auto id : batch.sparse(s).values()) {
            ASSERT_GE(id, 0);
            ASSERT_LT(id, hash_size);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace rap::preproc
