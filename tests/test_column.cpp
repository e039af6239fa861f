/**
 * @file
 * Unit tests for columnar containers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "data/column.hpp"

namespace rap::data {
namespace {

/** One sparse row's id list (SparseColumn::appendRow takes a span). */
using Ids = std::vector<std::int64_t>;

TEST(DenseColumn, ConstructedValidAndZero)
{
    DenseColumn col(4);
    EXPECT_EQ(col.size(), 4u);
    for (std::size_t r = 0; r < col.size(); ++r) {
        EXPECT_TRUE(col.isValid(r));
        EXPECT_FLOAT_EQ(col.value(r), 0.0f);
    }
    EXPECT_EQ(col.nullCount(), 0u);
}

TEST(DenseColumn, SetAndNull)
{
    DenseColumn col(3);
    col.set(1, 2.5f);
    col.setNull(2);
    EXPECT_FLOAT_EQ(col.value(1), 2.5f);
    EXPECT_FALSE(col.isValid(2));
    EXPECT_EQ(col.nullCount(), 1u);
    col.set(2, 1.0f); // setting revalidates
    EXPECT_TRUE(col.isValid(2));
    EXPECT_EQ(col.nullCount(), 0u);
}

TEST(DenseColumn, FromValuesAllValid)
{
    DenseColumn col(std::vector<float>{1.0f, 2.0f});
    EXPECT_EQ(col.size(), 2u);
    EXPECT_EQ(col.nullCount(), 0u);
}

TEST(DenseColumn, ByteSizePositive)
{
    DenseColumn col(10);
    EXPECT_GT(col.byteSize(), 0.0);
}

TEST(DenseColumnDeath, MismatchedValidityPanics)
{
    EXPECT_DEATH(DenseColumn(std::vector<float>{1.0f},
                             std::vector<std::uint8_t>{1, 1}),
                 "mismatch");
}

TEST(SparseColumn, EmptyHasZeroRows)
{
    SparseColumn col;
    EXPECT_EQ(col.size(), 0u);
    EXPECT_EQ(col.totalValues(), 0u);
    EXPECT_DOUBLE_EQ(col.avgListLength(), 0.0);
}

TEST(SparseColumn, AppendAndRead)
{
    SparseColumn col;
    col.appendRow(Ids{1, 2, 3});
    col.appendRow({});
    col.appendRow(Ids{7});
    EXPECT_EQ(col.size(), 3u);
    EXPECT_EQ(col.listLength(0), 3u);
    EXPECT_EQ(col.listLength(1), 0u);
    EXPECT_EQ(col.listLength(2), 1u);
    EXPECT_EQ(col.value(0, 2), 3);
    EXPECT_EQ(col.value(2, 0), 7);
    EXPECT_EQ(col.totalValues(), 4u);
    EXPECT_NEAR(col.avgListLength(), 4.0 / 3.0, 1e-12);
}

TEST(SparseColumn, ArrowLayoutRoundTrip)
{
    SparseColumn col({0, 2, 2, 5}, {10, 11, 20, 21, 22});
    EXPECT_EQ(col.size(), 3u);
    EXPECT_EQ(col.listLength(0), 2u);
    EXPECT_EQ(col.listLength(1), 0u);
    EXPECT_EQ(col.listLength(2), 3u);
    EXPECT_EQ(col.value(2, 1), 21);
}

TEST(SparseColumnDeath, NonMonotoneOffsetsPanic)
{
    EXPECT_DEATH(SparseColumn({0, 3, 2}, {1, 2, 3}), "monotone");
}

TEST(SparseColumnDeath, OffsetsMustEndAtValueCount)
{
    EXPECT_DEATH(SparseColumn({0, 2}, {1, 2, 3}), "value count");
}

TEST(SparseColumnDeath, OutOfRangeAccessPanics)
{
    SparseColumn col;
    col.appendRow(Ids{1});
    EXPECT_DEATH((void)col.value(0, 5), "out of range");
    EXPECT_DEATH((void)col.listLength(3), "out of range");
}

TEST(SparseColumn, MutableValuesEditInPlace)
{
    SparseColumn col;
    col.appendRow(Ids{5, 6});
    for (auto &v : col.mutableValues())
        v *= 10;
    EXPECT_EQ(col.value(0, 0), 50);
    EXPECT_EQ(col.value(0, 1), 60);
}

} // namespace
} // namespace rap::data
