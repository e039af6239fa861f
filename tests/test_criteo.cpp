/**
 * @file
 * Unit and property tests for the synthetic Criteo dataset generator.
 */

#include <gtest/gtest.h>

#include "data/criteo.hpp"

namespace rap::data {
namespace {

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

TEST(CriteoGenerator, DeterministicForSeed)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoKaggle);
    CriteoGenerator a(schema, 99);
    CriteoGenerator b(schema, 99);
    auto batch_a = a.generate(64);
    auto batch_b = b.generate(64);
    for (std::size_t r = 0; r < 64; ++r) {
        EXPECT_EQ(batch_a.dense(0).isValid(r),
                  batch_b.dense(0).isValid(r));
        if (batch_a.dense(0).isValid(r)) {
            EXPECT_FLOAT_EQ(batch_a.dense(0).value(r),
                            batch_b.dense(0).value(r));
        }
        ASSERT_EQ(batch_a.sparse(0).listLength(r),
                  batch_b.sparse(0).listLength(r));
    }
}

TEST(CriteoGenerator, DifferentSeedsDiffer)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoKaggle);
    CriteoGenerator a(schema, 1);
    CriteoGenerator b(schema, 2);
    auto batch_a = a.generate(64);
    auto batch_b = b.generate(64);
    int identical = 0;
    for (std::size_t r = 0; r < 64; ++r) {
        identical += batch_a.dense(0).isValid(r) &&
                     batch_b.dense(0).isValid(r) &&
                     batch_a.dense(0).value(r) ==
                         batch_b.dense(0).value(r);
    }
    EXPECT_LT(identical, 8);
}

TEST(CriteoGenerator, NullProbabilityRespected)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoKaggle);
    CriteoGenerator gen(schema, 3);
    gen.setNullProbability(0.25);
    auto batch = gen.generate(4000);
    std::size_t nulls = 0;
    for (std::size_t f = 0; f < batch.denseCount(); ++f)
        nulls += batch.dense(f).nullCount();
    const double frac = static_cast<double>(nulls) /
                        (4000.0 * static_cast<double>(
                                      batch.denseCount()));
    EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(CriteoGenerator, DenseValuesPositiveWhenValid)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoKaggle);
    CriteoGenerator gen(schema, 4);
    auto batch = gen.generate(256);
    for (std::size_t r = 0; r < 256; ++r) {
        if (batch.dense(0).isValid(r)) {
            EXPECT_GT(batch.dense(0).value(r), 0.0f);
        }
    }
}

TEST(CriteoGenerator, SparseIdsNonNegative)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoTerabyte);
    CriteoGenerator gen(schema, 5);
    auto batch = gen.generate(128);
    for (std::size_t f = 0; f < batch.sparseCount(); ++f) {
        const auto &col = batch.sparse(f);
        for (auto v : col.values())
            EXPECT_GE(v, 0);
    }
}

TEST(CriteoGenerator, ListLengthsTrackSchema)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoTerabyte);
    CriteoGenerator gen(schema, 6);
    auto batch = gen.generate(4000);
    // Feature 4 has the largest configured mean list length (8).
    const double long_avg = batch.sparse(4).avgListLength();
    const double short_avg = batch.sparse(0).avgListLength();
    EXPECT_GT(long_avg, short_avg + 1.0);
}

TEST(CriteoPreset, Names)
{
    EXPECT_EQ(datasetPresetName(DatasetPreset::CriteoKaggle),
              "Criteo Kaggle");
    EXPECT_EQ(datasetPresetName(DatasetPreset::CriteoTerabyte),
              "Criteo Terabyte");
}

} // namespace
} // namespace rap::data
