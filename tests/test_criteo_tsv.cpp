/**
 * @file
 * Tests for the Criteo TSV reader/writer (the data-storage substrate).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "data/criteo.hpp"
#include "data/criteo_tsv.hpp"
#include "data/row_codec.hpp"

namespace rap::data {
namespace {

/** One sparse row's id list (SparseColumn::appendRow takes a span). */
using Ids = std::vector<std::int64_t>;

Schema
smallSchema()
{
    Schema schema;
    schema.addDense("d0");
    schema.addDense("d1");
    schema.addSparse("s0", 1000, 2.0);
    schema.addSparse("s1", 1000, 1.0);
    return schema;
}

TEST(RowCodec, ReportsMalformedFields)
{
    const auto schema = smallSchema();
    CriteoRow row;
    RowError error;

    EXPECT_FALSE(decodeCriteoRow("1.0\t2.0\t7", schema, row,
                                 error)); // 3 of 4 fields
    EXPECT_FALSE(decodeCriteoRow("1.0\tbad\t7\t42", schema, row, error));
    EXPECT_EQ(error.field, 1u);
    EXPECT_NE(error.message.find("'bad'"), std::string::npos);
    EXPECT_FALSE(
        decodeCriteoRow("1.0\t2.0\t7,x\t42", schema, row, error));
    EXPECT_EQ(error.field, 2u);
}

TEST(CriteoTsv, RoundTripPreservesEverything)
{
    const auto schema = smallSchema();
    RecordBatch batch(schema, 3);
    batch.dense(0).set(0, 1.5f);
    batch.dense(0).setNull(1);
    batch.dense(0).set(2, -2.0f);
    batch.dense(1).set(0, 7.0f);
    batch.dense(1).set(1, 8.0f);
    batch.dense(1).set(2, 9.0f);
    SparseColumn s0;
    s0.appendRow(Ids{10, 20, 30});
    s0.appendRow({});
    s0.appendRow(Ids{5});
    batch.setSparse(0, std::move(s0));
    SparseColumn s1;
    s1.appendRow(Ids{1});
    s1.appendRow(Ids{2});
    s1.appendRow({});
    batch.setSparse(1, std::move(s1));

    std::stringstream buffer;
    writeCriteoTsv(buffer, batch);
    const auto parsed = readCriteoTsv(buffer, schema);

    ASSERT_EQ(parsed.rows(), 3u);
    EXPECT_FLOAT_EQ(parsed.dense(0).value(0), 1.5f);
    EXPECT_FALSE(parsed.dense(0).isValid(1));
    EXPECT_FLOAT_EQ(parsed.dense(0).value(2), -2.0f);
    EXPECT_FLOAT_EQ(parsed.dense(1).value(2), 9.0f);
    EXPECT_EQ(parsed.sparse(0).listLength(0), 3u);
    EXPECT_EQ(parsed.sparse(0).value(0, 1), 20);
    EXPECT_EQ(parsed.sparse(0).listLength(1), 0u);
    EXPECT_EQ(parsed.sparse(1).value(1, 0), 2);
    EXPECT_EQ(parsed.sparse(1).listLength(2), 0u);
}

TEST(CriteoTsv, GeneratedBatchRoundTrips)
{
    const auto schema = makePresetSchema(DatasetPreset::CriteoKaggle);
    CriteoGenerator gen(schema, 31);
    const auto batch = gen.generate(200);

    std::stringstream buffer;
    writeCriteoTsv(buffer, batch);
    const auto parsed = readCriteoTsv(buffer, schema);

    ASSERT_EQ(parsed.rows(), batch.rows());
    for (std::size_t s = 0; s < schema.sparseCount(); ++s) {
        EXPECT_EQ(parsed.sparse(s).values(), batch.sparse(s).values());
        EXPECT_EQ(parsed.sparse(s).offsets(),
                  batch.sparse(s).offsets());
    }
    for (std::size_t f = 0; f < schema.denseCount(); ++f) {
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            ASSERT_EQ(parsed.dense(f).isValid(r),
                      batch.dense(f).isValid(r));
        }
    }
}

TEST(CriteoTsv, MaxRowsLimitsReading)
{
    const auto schema = smallSchema();
    RecordBatch batch(schema, 5);
    std::stringstream buffer;
    writeCriteoTsv(buffer, batch);
    const auto parsed = readCriteoTsv(buffer, schema, 2);
    EXPECT_EQ(parsed.rows(), 2u);
}

TEST(CriteoTsv, SkipsBlankLines)
{
    const auto schema = smallSchema();
    std::stringstream buffer("1.0\t2.0\t3\t4\n\n5.0\t6.0\t7\t8\n");
    const auto parsed = readCriteoTsv(buffer, schema);
    EXPECT_EQ(parsed.rows(), 2u);
    EXPECT_FLOAT_EQ(parsed.dense(0).value(1), 5.0f);
}

TEST(CriteoTsv, CrlfLineEndingsRoundTrip)
{
    const auto schema = smallSchema();
    RecordBatch batch(schema, 3);
    batch.dense(0).set(0, 1.5f);
    batch.dense(0).setNull(1);
    batch.dense(0).set(2, -2.0f);
    batch.dense(1).set(0, 7.0f);
    batch.dense(1).set(1, 8.0f);
    batch.dense(1).set(2, 9.0f);
    SparseColumn s0;
    s0.appendRow(Ids{10, 20, 30});
    s0.appendRow({});
    s0.appendRow(Ids{5});
    batch.setSparse(0, std::move(s0));
    SparseColumn s1;
    s1.appendRow(Ids{1});
    s1.appendRow(Ids{2});
    s1.appendRow({}); // trailing field empty: '\r' is all that follows
    batch.setSparse(1, std::move(s1));

    std::stringstream buffer;
    writeCriteoTsv(buffer, batch);
    std::string text = buffer.str();
    // Rewrite to Windows line endings, as a file copied through a
    // CRLF platform would arrive.
    std::string crlf;
    for (char c : text) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    std::stringstream crlf_buffer(crlf);
    const auto parsed = readCriteoTsv(crlf_buffer, schema);

    ASSERT_EQ(parsed.rows(), 3u);
    EXPECT_FLOAT_EQ(parsed.dense(0).value(0), 1.5f);
    EXPECT_FALSE(parsed.dense(0).isValid(1));
    EXPECT_FLOAT_EQ(parsed.dense(0).value(2), -2.0f);
    EXPECT_FLOAT_EQ(parsed.dense(1).value(2), 9.0f);
    EXPECT_EQ(parsed.sparse(0).listLength(0), 3u);
    EXPECT_EQ(parsed.sparse(0).value(0, 1), 20);
    EXPECT_EQ(parsed.sparse(1).value(1, 0), 2);
    EXPECT_EQ(parsed.sparse(1).listLength(2), 0u);
}

TEST(CriteoTsvDeath, WrongFieldCountIsFatal)
{
    const auto schema = smallSchema();
    std::stringstream buffer("1.0\t2.0\t3\n");
    EXPECT_EXIT((void)readCriteoTsv(buffer, schema),
                ::testing::ExitedWithCode(1), "fields");
}

TEST(CriteoTsvDeath, MalformedIdIsFatal)
{
    const auto schema = smallSchema();
    std::stringstream buffer("1.0\t2.0\tabc\t4\n");
    EXPECT_EXIT((void)readCriteoTsv(buffer, schema),
                ::testing::ExitedWithCode(1), "malformed");
}

TEST(CriteoTsvDeath, MalformedDenseValueIsFatal)
{
    const auto schema = smallSchema();
    // strtof would silently accept the "1.5" prefix; the reader must
    // reject any trailing garbage in a dense field.
    std::stringstream buffer("1.5abc\t2.0\t3\t4\n");
    EXPECT_EXIT((void)readCriteoTsv(buffer, schema),
                ::testing::ExitedWithCode(1), "malformed dense");
}

TEST(CriteoTsvDeath, NonNumericDenseValueIsFatal)
{
    const auto schema = smallSchema();
    std::stringstream buffer("1.0\tx\t3\t4\n");
    EXPECT_EXIT((void)readCriteoTsv(buffer, schema),
                ::testing::ExitedWithCode(1), "malformed dense");
}

TEST(CriteoTsvChecked, CleanInputHasNoErrors)
{
    const auto schema = smallSchema();
    std::stringstream buffer("1.0\t2.0\t3\t4\n5.0\t6.0\t7\t8\n");
    const auto result = readCriteoTsvChecked(buffer, schema);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.rowsScanned, 2u);
    EXPECT_EQ(result.batch.rows(), 2u);
}

TEST(CriteoTsvChecked, MalformedRowsAreReportedNotFatal)
{
    const auto schema = smallSchema();
    // Row 0 ok; row 1 truncated; row 2 bad dense; row 3 bad sparse;
    // row 4 ok again — the reader keeps rows 0 and 4 and explains
    // the other three.
    std::stringstream buffer("1.0\t2.0\t3\t4\n"
                             "1.0\t2.0\t3\n"
                             "1.0\tx\t3\t4\n"
                             "1.0\t2.0\t3,abc\t4\n"
                             "9.0\t8.0\t7\t6\n");
    const auto result = readCriteoTsvChecked(buffer, schema);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.rowsScanned, 5u);
    ASSERT_EQ(result.batch.rows(), 2u);
    EXPECT_FLOAT_EQ(result.batch.dense(0).value(1), 9.0f);
    ASSERT_EQ(result.errors.size(), 3u);
    EXPECT_EQ(result.errors[0].row, 1u);
    EXPECT_NE(result.errors[0].message.find("fields"),
              std::string::npos);
    EXPECT_EQ(result.errors[1].row, 2u);
    EXPECT_EQ(result.errors[1].field, 1u);
    EXPECT_NE(result.errors[1].message.find("malformed dense"),
              std::string::npos);
    EXPECT_EQ(result.errors[2].row, 3u);
    EXPECT_EQ(result.errors[2].field, 2u);
    EXPECT_NE(result.errors[2].message.find("malformed sparse"),
              std::string::npos);
}

TEST(CriteoTsvChecked, EmbeddedNulIsAStructuredError)
{
    const auto schema = smallSchema();
    std::string text = "1.0\t2.0\t3\t4\n1.0\t2.0\t3\t4\n";
    text[6] = '\0'; // inside row 0's sparse field area
    std::stringstream buffer(text);
    const auto result = readCriteoTsvChecked(buffer, schema);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].row, 0u);
    EXPECT_NE(result.errors[0].message.find("NUL"),
              std::string::npos);
    EXPECT_EQ(result.batch.rows(), 1u);
}

TEST(CriteoTsvChecked, MaxRowsCountsValidRowsOnly)
{
    const auto schema = smallSchema();
    std::stringstream buffer("bad\n"
                             "1.0\t2.0\t3\t4\n"
                             "bad\n"
                             "5.0\t6.0\t7\t8\n"
                             "9.0\t9.0\t9\t9\n");
    const auto result = readCriteoTsvChecked(buffer, schema, 2);
    EXPECT_EQ(result.batch.rows(), 2u);
    EXPECT_EQ(result.errors.size(), 2u);
    EXPECT_FLOAT_EQ(result.batch.dense(0).value(1), 5.0f);
}

TEST(CriteoTsvChecked, SeededCorruptionPropertyHoldsRowAccounting)
{
    // Property: for any seeded corruption of a valid TSV dump, every
    // corrupted row is reported exactly once, every clean row is
    // committed unchanged, and scanned == committed + errors.
    const auto schema = smallSchema();
    for (std::uint64_t seed : {1ULL, 7ULL, 0xc0ffeeULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const std::size_t rows = 64;
        RecordBatch batch(schema, rows);
        for (std::size_t r = 0; r < rows; ++r) {
            batch.dense(0).set(r, static_cast<float>(r));
            batch.dense(1).set(r, 0.5f);
        }
        SparseColumn s0;
        SparseColumn s1;
        for (std::size_t r = 0; r < rows; ++r) {
            s0.appendRow(Ids{static_cast<std::int64_t>(r), 7});
            s1.appendRow(Ids{static_cast<std::int64_t>(2 * r)});
        }
        batch.setSparse(0, std::move(s0));
        batch.setSparse(1, std::move(s1));

        std::stringstream buffer;
        writeCriteoTsv(buffer, batch);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(buffer, line))
            lines.push_back(line);
        ASSERT_EQ(lines.size(), rows);

        std::set<std::size_t> corrupted;
        for (int k = 0; k < 12; ++k) {
            const auto r = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(rows) - 1));
            if (!corrupted.insert(r).second)
                continue;
            switch (rng.uniformInt(0, 2)) {
              case 0: // truncate: drop the last field
                lines[r] = lines[r].substr(
                    0, lines[r].find_last_of('\t'));
                break;
              case 1: // garbage token in a sparse field
                lines[r] += ",x!";
                break;
              default: // embedded NUL
                lines[r][lines[r].size() / 2] = '\0';
                break;
            }
        }
        std::string corrupted_text;
        for (const auto &l : lines)
            corrupted_text += l + "\n";
        std::stringstream corrupted_in(corrupted_text);
        const auto result =
            readCriteoTsvChecked(corrupted_in, schema);

        EXPECT_EQ(result.rowsScanned, rows);
        EXPECT_EQ(result.errors.size(), corrupted.size());
        EXPECT_EQ(result.batch.rows(), rows - corrupted.size());
        std::set<std::size_t> reported;
        for (const auto &error : result.errors)
            reported.insert(error.row);
        EXPECT_EQ(reported, corrupted);
        // Surviving rows keep their original values, in order.
        std::size_t out = 0;
        for (std::size_t r = 0; r < rows; ++r) {
            if (corrupted.count(r) != 0)
                continue;
            EXPECT_FLOAT_EQ(result.batch.dense(0).value(out),
                            static_cast<float>(r));
            ASSERT_EQ(result.batch.sparse(0).listLength(out), 2u);
            EXPECT_EQ(result.batch.sparse(0).value(out, 0),
                      static_cast<std::int64_t>(r));
            ++out;
        }
    }
}

TEST(CriteoTsv, FileRoundTrip)
{
    const auto schema = smallSchema();
    RecordBatch batch(schema, 4);
    batch.dense(0).set(0, 3.25f);
    const std::string path = "/tmp/rap_tsv_test.tsv";
    writeCriteoTsvFile(path, batch);
    const auto parsed = readCriteoTsvFile(path, schema);
    EXPECT_EQ(parsed.rows(), 4u);
    EXPECT_FLOAT_EQ(parsed.dense(0).value(0), 3.25f);
    std::remove(path.c_str());
}

TEST(CriteoTsvDeath, MissingFileIsFatal)
{
    EXPECT_EXIT((void)readCriteoTsvFile("/nonexistent/x.tsv",
                                        smallSchema()),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace rap::data
