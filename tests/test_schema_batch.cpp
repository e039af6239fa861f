/**
 * @file
 * Unit tests for schemas and record batches.
 */

#include <gtest/gtest.h>

#include <vector>

#include "data/batch.hpp"
#include "data/schema.hpp"

namespace rap::data {
namespace {

/** One sparse row's id list (SparseColumn::appendRow takes a span). */
using Ids = std::vector<std::int64_t>;

Schema
smallSchema()
{
    Schema schema;
    schema.addDense("age");
    schema.addDense("time");
    schema.addSparse("item", 1000, 2.0);
    return schema;
}

TEST(Schema, CountsAndAccessors)
{
    const auto schema = smallSchema();
    EXPECT_EQ(schema.denseCount(), 2u);
    EXPECT_EQ(schema.sparseCount(), 1u);
    EXPECT_EQ(schema.featureCount(), 3u);
    EXPECT_EQ(schema.dense(0).name, "age");
    EXPECT_EQ(schema.sparse(0).hashSize, 1000);
    EXPECT_DOUBLE_EQ(schema.sparse(0).avgListLength, 2.0);
    EXPECT_EQ(schema.totalHashSize(), 1000);
}

TEST(SchemaDeath, InvalidIndexPanics)
{
    const auto schema = smallSchema();
    EXPECT_DEATH((void)schema.dense(5), "out of range");
    EXPECT_DEATH((void)schema.sparse(5), "out of range");
}

TEST(SchemaDeath, NonPositiveHashSizePanics)
{
    Schema schema;
    EXPECT_DEATH(schema.addSparse("bad", 0), "positive hash size");
}

TEST(RecordBatch, ShapedAfterSchema)
{
    RecordBatch batch(smallSchema(), 16);
    EXPECT_EQ(batch.rows(), 16u);
    EXPECT_EQ(batch.denseCount(), 2u);
    EXPECT_EQ(batch.sparseCount(), 1u);
    EXPECT_EQ(batch.dense(0).size(), 16u);
    EXPECT_EQ(batch.sparse(0).size(), 16u);
    EXPECT_EQ(batch.sparse(0).listLength(3), 0u);
}

TEST(RecordBatch, SetColumnsValidated)
{
    RecordBatch batch(smallSchema(), 2);
    batch.setDense(0, DenseColumn(std::vector<float>{1.0f, 2.0f}));
    EXPECT_FLOAT_EQ(batch.dense(0).value(1), 2.0f);
    EXPECT_DEATH(batch.setDense(0, DenseColumn(3)), "mismatch");

    SparseColumn col;
    col.appendRow(Ids{1});
    col.appendRow(Ids{2, 3});
    batch.setSparse(0, std::move(col));
    EXPECT_EQ(batch.sparse(0).listLength(1), 2u);
}

TEST(RecordBatch, AppendColumns)
{
    RecordBatch batch(smallSchema(), 2);
    const auto dense_idx = batch.appendDense(DenseColumn(2));
    EXPECT_EQ(dense_idx, 2u);
    EXPECT_EQ(batch.denseCount(), 3u);

    SparseColumn col;
    col.appendRow({});
    col.appendRow(Ids{9});
    const auto sparse_idx = batch.appendSparse(std::move(col));
    EXPECT_EQ(sparse_idx, 1u);
    EXPECT_EQ(batch.sparseCount(), 2u);
}

TEST(RecordBatch, ByteSizeGrowsWithColumns)
{
    RecordBatch small(smallSchema(), 4);
    RecordBatch large(smallSchema(), 400);
    EXPECT_GT(large.byteSize(), small.byteSize());
}

} // namespace
} // namespace rap::data
