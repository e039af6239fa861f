/**
 * @file
 * Unit tests for the host reference semantics of every preprocessing
 * operator (paper Table 1).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "data/batch.hpp"
#include "preproc/ops.hpp"

namespace rap::preproc {
namespace {

using data::DenseColumn;
using data::FeatureKind;
using data::RecordBatch;
using data::Schema;
using data::SparseColumn;

/** One sparse row's id list (SparseColumn::appendRow takes a span). */
using Ids = std::vector<std::int64_t>;

Schema
testSchema()
{
    Schema schema;
    schema.addDense("d0");
    schema.addSparse("s0", 1000, 3.0);
    schema.addSparse("s1", 1000, 2.0);
    return schema;
}

RecordBatch
testBatch()
{
    RecordBatch batch(testSchema(), 4);
    DenseColumn dense(4);
    dense.set(0, 1.0f);
    dense.set(1, 9.0f);
    dense.setNull(2);
    dense.set(3, -2.0f);
    batch.setDense(0, dense);

    SparseColumn s0;
    s0.appendRow(Ids{100, 200, 300});
    s0.appendRow({});
    s0.appendRow(Ids{-50});
    s0.appendRow(Ids{7, 7});
    batch.setSparse(0, std::move(s0));

    SparseColumn s1;
    s1.appendRow(Ids{1});
    s1.appendRow(Ids{2, 3});
    s1.appendRow(Ids{4});
    s1.appendRow({});
    batch.setSparse(1, std::move(s1));
    return batch;
}

OpNode
denseNode(OpType type)
{
    OpNode node;
    node.type = type;
    node.inputs = {ColumnRef{FeatureKind::Dense, 0}};
    node.output = node.inputs.front();
    node.featureId = 0;
    return node;
}

OpNode
sparseNode(OpType type, std::size_t index = 0)
{
    OpNode node;
    node.type = type;
    node.inputs = {ColumnRef{FeatureKind::Sparse, index}};
    node.output = node.inputs.front();
    node.featureId = 1 + static_cast<int>(index);
    return node;
}

TEST(OpFillNull, DenseReplacesNulls)
{
    auto batch = testBatch();
    auto node = denseNode(OpType::FillNull);
    node.params.fillValue = -1.0;
    applyOp(node, batch);
    EXPECT_TRUE(batch.dense(0).isValid(2));
    EXPECT_FLOAT_EQ(batch.dense(0).value(2), -1.0f);
    // Valid values untouched.
    EXPECT_FLOAT_EQ(batch.dense(0).value(1), 9.0f);
    EXPECT_EQ(batch.dense(0).nullCount(), 0u);
}

TEST(OpFillNull, SparseFillsEmptyLists)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::FillNull);
    node.params.fillValue = 42.0;
    applyOp(node, batch);
    EXPECT_EQ(batch.sparse(0).listLength(1), 1u);
    EXPECT_EQ(batch.sparse(0).value(1, 0), 42);
    // Non-empty lists untouched.
    EXPECT_EQ(batch.sparse(0).listLength(0), 3u);
    EXPECT_EQ(batch.sparse(0).value(0, 1), 200);
}

TEST(OpCast, TruncatesTowardZero)
{
    auto batch = testBatch();
    batch.dense(0).set(0, 2.7f);
    batch.dense(0).set(3, -2.7f);
    applyOp(denseNode(OpType::Cast), batch);
    EXPECT_FLOAT_EQ(batch.dense(0).value(0), 2.0f);
    EXPECT_FLOAT_EQ(batch.dense(0).value(3), -2.0f);
    // Nulls are skipped.
    EXPECT_FALSE(batch.dense(0).isValid(2));
}

TEST(OpLogit, FiniteAndMonotone)
{
    auto batch = testBatch();
    batch.dense(0).set(0, 0.5f);
    batch.dense(0).set(1, 5.0f);
    applyOp(denseNode(OpType::Logit), batch);
    const float lo = batch.dense(0).value(0);
    const float hi = batch.dense(0).value(1);
    EXPECT_TRUE(std::isfinite(lo));
    EXPECT_TRUE(std::isfinite(hi));
    EXPECT_LT(lo, hi); // monotone in the input
}

TEST(OpBoxCox, MatchesClosedForm)
{
    auto batch = testBatch();
    batch.dense(0).set(0, 4.0f);
    auto node = denseNode(OpType::BoxCox);
    node.params.boxcoxLambda = 0.5;
    applyOp(node, batch);
    // (4^0.5 - 1) / 0.5 = 2.
    EXPECT_NEAR(batch.dense(0).value(0), 2.0f, 1e-5);
}

TEST(OpBoxCox, NegativeInputsClampedToZero)
{
    auto batch = testBatch();
    auto node = denseNode(OpType::BoxCox);
    node.params.boxcoxLambda = 0.5;
    applyOp(node, batch);
    // x = -2 is clamped to 0: (0 - 1) / 0.5 = -2.
    EXPECT_NEAR(batch.dense(0).value(3), -2.0f, 1e-5);
}

TEST(OpOnehot, BinsWithinRange)
{
    auto batch = testBatch();
    auto node = denseNode(OpType::Onehot);
    node.params.onehotBins = 8;
    applyOp(node, batch);
    for (std::size_t r = 0; r < 4; ++r) {
        if (!batch.dense(0).isValid(r))
            continue;
        const float bin = batch.dense(0).value(r);
        EXPECT_GE(bin, 0.0f);
        EXPECT_LT(bin, 8.0f);
        EXPECT_FLOAT_EQ(bin, std::floor(bin));
    }
}

TEST(OpBucketize, QuadraticBorders)
{
    auto batch = testBatch();
    batch.dense(0).set(0, 0.5f);  // sqrt -> 0
    batch.dense(0).set(1, 10.0f); // sqrt ~ 3.16 -> 3
    auto node = denseNode(OpType::Bucketize);
    node.params.bucketBorders = 16;
    applyOp(node, batch);
    EXPECT_FLOAT_EQ(batch.dense(0).value(0), 0.0f);
    EXPECT_FLOAT_EQ(batch.dense(0).value(1), 3.0f);
}

TEST(OpBucketize, ClampedToBorderCount)
{
    auto batch = testBatch();
    batch.dense(0).set(1, 1e6f);
    auto node = denseNode(OpType::Bucketize);
    node.params.bucketBorders = 4;
    applyOp(node, batch);
    EXPECT_FLOAT_EQ(batch.dense(0).value(1), 3.0f);
}

TEST(OpSigridHash, IdsWithinHashSpace)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::SigridHash);
    node.params.hashSize = 97;
    applyOp(node, batch);
    for (auto id : batch.sparse(0).values()) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 97);
    }
}

TEST(OpSigridHash, DeterministicAndSpreading)
{
    auto batch_a = testBatch();
    auto batch_b = testBatch();
    auto node = sparseNode(OpType::SigridHash);
    node.params.hashSize = 1'000'000;
    applyOp(node, batch_a);
    applyOp(node, batch_b);
    EXPECT_EQ(batch_a.sparse(0).values(), batch_b.sparse(0).values());
    // 100 and 200 should hash to different ids.
    EXPECT_NE(batch_a.sparse(0).value(0, 0),
              batch_a.sparse(0).value(0, 1));
}

TEST(OpFirstX, TruncatesLists)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::FirstX);
    node.params.firstX = 2;
    applyOp(node, batch);
    EXPECT_EQ(batch.sparse(0).listLength(0), 2u);
    EXPECT_EQ(batch.sparse(0).value(0, 0), 100);
    EXPECT_EQ(batch.sparse(0).value(0, 1), 200);
    EXPECT_EQ(batch.sparse(0).listLength(1), 0u); // empty stays empty
    EXPECT_EQ(batch.sparse(0).listLength(2), 1u); // short stays short
}

TEST(OpClamp, BoundsRespected)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::Clamp);
    node.params.clampLo = 0;
    node.params.clampHi = 150;
    applyOp(node, batch);
    EXPECT_EQ(batch.sparse(0).value(0, 0), 100); // in range
    EXPECT_EQ(batch.sparse(0).value(0, 1), 150); // clamped high
    EXPECT_EQ(batch.sparse(0).value(2, 0), 0);   // clamped low
}

TEST(OpMapId, AffineModulo)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::MapId);
    node.params.mapMul = 3;
    node.params.mapAdd = 1;
    node.params.hashSize = 1000;
    applyOp(node, batch);
    EXPECT_EQ(batch.sparse(0).value(0, 0), (100 * 3 + 1) % 1000);
    EXPECT_EQ(batch.sparse(0).value(0, 2), (300 * 3 + 1) % 1000);
}

TEST(OpNgram, SingleInputWindows)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::Ngram);
    node.params.ngramN = 2;
    node.params.hashSize = 10'000;
    applyOp(node, batch);
    // Row 0 had 3 ids: 3 - 2 + 1 = 2 windows.
    EXPECT_EQ(batch.sparse(0).listLength(0), 2u);
    // Row 1 was empty: stays empty.
    EXPECT_EQ(batch.sparse(0).listLength(1), 0u);
    // Row 2 had 1 id (< n): one clamped window.
    EXPECT_EQ(batch.sparse(0).listLength(2), 1u);
    for (auto id : batch.sparse(0).values()) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 10'000);
    }
}

TEST(OpNgram, CrossFeatureConcatenation)
{
    auto batch = testBatch();
    auto node = sparseNode(OpType::Ngram);
    node.inputs.push_back(ColumnRef{FeatureKind::Sparse, 1});
    node.params.ngramN = 2;
    node.params.hashSize = 10'000;
    applyOp(node, batch);
    // Row 1: feature 0 empty + feature 1 has {2, 3}: 1 window.
    EXPECT_EQ(batch.sparse(0).listLength(1), 1u);
    // Row 0: 3 + 1 = 4 merged ids: 3 windows.
    EXPECT_EQ(batch.sparse(0).listLength(0), 3u);
}

TEST(OpNgram, OrderSensitive)
{
    auto batch_a = testBatch();
    auto batch_b = testBatch();
    {
        data::SparseColumn col;
        col.appendRow(Ids{200, 100, 300}); // swapped first two ids
        col.appendRow({});
        col.appendRow(Ids{-50});
        col.appendRow(Ids{7, 7});
        batch_b.setSparse(0, std::move(col));
    }
    auto node = sparseNode(OpType::Ngram);
    node.params.ngramN = 2;
    node.params.hashSize = 1'000'000;
    applyOp(node, batch_a);
    applyOp(node, batch_b);
    EXPECT_NE(batch_a.sparse(0).value(0, 0),
              batch_b.sparse(0).value(0, 0));
}

TEST(OpDispatch, HashMixIsStable)
{
    EXPECT_EQ(hashMix64(0), hashMix64(0));
    EXPECT_NE(hashMix64(1), hashMix64(2));
}

TEST(OpDispatchDeath, WrongColumnKindPanics)
{
    auto batch = testBatch();
    auto node = denseNode(OpType::SigridHash); // sparse op, dense input
    EXPECT_DEATH(applyOp(node, batch), "sparse");
}

} // namespace
} // namespace rap::preproc
