/**
 * @file
 * Unit tests for schemas and the Criteo dataset presets.
 */

#include <gtest/gtest.h>

#include "data/criteo.hpp"

namespace rap::data {
namespace {

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

TEST(CriteoSchema, KagglePresetMatchesTable2)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoKaggle);
    EXPECT_EQ(schema.denseCount(), 13u);
    EXPECT_EQ(schema.sparseCount(), 26u);
    EXPECT_EQ(schema.totalHashSize(), 33'700'000);
}

TEST(CriteoSchema, TerabytePresetMatchesTable2)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoTerabyte);
    EXPECT_EQ(schema.denseCount(), 13u);
    EXPECT_EQ(schema.sparseCount(), 26u);
    EXPECT_EQ(schema.totalHashSize(), 177'900'000);
}

TEST(CriteoSchema, HashSizesSkewedDescending)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoTerabyte);
    for (std::size_t i = 1; i < schema.sparseCount(); ++i)
        EXPECT_GE(schema.sparse(i - 1).hashSize,
                  schema.sparse(i).hashSize);
    // Long-tailed: the biggest table dominates the smallest.
    EXPECT_GT(schema.sparse(0).hashSize,
              10 * schema.sparse(25).hashSize);
}

/** Scaled schemas keep the preset's total hash size. */
class ScaledSchemaTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(ScaledSchemaTest, KeepsTotalHash)
{
    const auto [dense, sparse] = GetParam();
    const auto schema =
        makeScaledSchema(DatasetPreset::CriteoTerabyte, dense, sparse);
    EXPECT_EQ(schema.denseCount(), dense);
    EXPECT_EQ(schema.sparseCount(), sparse);
    EXPECT_EQ(schema.totalHashSize(), 177'900'000);
}

INSTANTIATE_TEST_SUITE_P(
    Table3Shapes, ScaledSchemaTest,
    ::testing::Values(std::make_pair(std::size_t{13}, std::size_t{26}),
                      std::make_pair(std::size_t{26}, std::size_t{52}),
                      std::make_pair(std::size_t{52}, std::size_t{104})));

TEST(CriteoPreset, Names)
{
    EXPECT_EQ(datasetPresetName(DatasetPreset::CriteoKaggle),
              "Criteo Kaggle");
    EXPECT_EQ(datasetPresetName(DatasetPreset::CriteoTerabyte),
              "Criteo Terabyte");
}

} // namespace
} // namespace rap::data
