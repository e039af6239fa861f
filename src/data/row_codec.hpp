/**
 * @file
 * Single-row Criteo TSV decoder behind the batch TSV reader
 * (data/criteo_tsv.hpp), its one user.
 *
 * The reader stages one row at a time and commits it to column
 * builders only when the whole row is clean, so a malformed line is
 * diagnosed here, field by field, before any column is touched.
 */

#ifndef RAP_DATA_ROW_CODEC_HPP
#define RAP_DATA_ROW_CODEC_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/schema.hpp"

namespace rap::data {

/**
 * One decoded row in row-major form: parallel dense value/validity
 * arrays plus one id list per sparse feature. Reused across rows —
 * clear() keeps the allocated capacity.
 */
struct CriteoRow
{
    std::vector<float> dense;
    std::vector<std::uint8_t> denseValid;
    std::vector<std::vector<std::int64_t>> sparse;

    /** Drop contents, keep capacity (per-feature lists included). */
    void clear();
};

/** One malformed row diagnosed by decodeCriteoRow. */
struct RowError
{
    /** 0-based field ordinal (dense first, then sparse). */
    std::size_t field = 0;
    /** What was wrong, quoting the offending text. */
    std::string message;
};

/**
 * Decode one Criteo TSV line (no trailing newline/CR) against
 * @p schema into @p row. Whole-row semantics: on any malformed field
 * the function stops, fills @p error, and returns false — @p row then
 * holds partial content the caller must discard. Empty dense fields
 * decode as nulls; an empty sparse field is an empty list.
 */
bool decodeCriteoRow(std::string_view line, const Schema &schema,
                     CriteoRow &row, RowError &error);

} // namespace rap::data

#endif // RAP_DATA_ROW_CODEC_HPP
