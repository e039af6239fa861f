/**
 * @file
 * Columnar data containers for DLRM input batches.
 *
 * Raw training data arrives column-based (the paper stores it as Apache
 * Parquet). RAP's host-side operator implementations work on these two
 * column shapes:
 *  - DenseColumn: one float per row with a validity mask (nullable).
 *  - SparseColumn: one variable-length list of int64 ids per row, stored
 *    in Arrow style as an offsets array plus a flat values array.
 */

#ifndef RAP_DATA_COLUMN_HPP
#define RAP_DATA_COLUMN_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace rap::data {

/**
 * Nullable column of 32-bit floats (one value per row).
 */
class DenseColumn
{
  public:
    DenseColumn() = default;

    /** Construct with @p rows entries, all valid and zero. */
    explicit DenseColumn(std::size_t rows);

    /** Construct from values; all entries valid. */
    explicit DenseColumn(std::vector<float> values);

    /** Construct from values and a validity mask of equal length. */
    DenseColumn(std::vector<float> values, std::vector<std::uint8_t> valid);

    std::size_t size() const { return values_.size(); }

    float value(std::size_t row) const { return values_[row]; }
    bool isValid(std::size_t row) const { return valid_[row] != 0; }

    /** Set @p row to @p v and mark it valid. */
    void set(std::size_t row, float v);

    /** Mark @p row as null. */
    void setNull(std::size_t row);

    /** @return Number of null entries. */
    std::size_t nullCount() const;

    const std::vector<float> &values() const { return values_; }
    const std::vector<std::uint8_t> &validity() const { return valid_; }

    /** @return Approximate in-memory footprint in bytes. */
    double byteSize() const;

  private:
    std::vector<float> values_;
    std::vector<std::uint8_t> valid_;
};

/**
 * Column of variable-length int64 id lists (Arrow list layout).
 *
 * Row r spans values()[offsets()[r] .. offsets()[r+1]). An empty list is
 * how a null/missing sparse entry is represented.
 */
class SparseColumn
{
  public:
    SparseColumn();

    /** Construct from raw Arrow-style arrays; offsets must be monotone. */
    SparseColumn(std::vector<std::int64_t> offsets,
                 std::vector<std::int64_t> values);

    /** @return Number of rows. */
    std::size_t size() const { return offsets_.size() - 1; }

    /** @return Length of the list at @p row. */
    std::size_t listLength(std::size_t row) const;

    /** @return Id at position @p i of the list at @p row. */
    std::int64_t value(std::size_t row, std::size_t i) const;

    /** Append one row given its id list. */
    void appendRow(std::span<const std::int64_t> ids);

    /** @return Total number of ids across all rows. */
    std::size_t totalValues() const { return values_.size(); }

    /** @return Mean list length (0 for an empty column). */
    double avgListLength() const;

    const std::vector<std::int64_t> &offsets() const { return offsets_; }
    const std::vector<std::int64_t> &values() const { return values_; }

    /** Mutable access used by in-place operators (e.g. SigridHash). */
    std::vector<std::int64_t> &mutableValues() { return values_; }

    /** @return Approximate in-memory footprint in bytes. */
    double byteSize() const;

  private:
    std::vector<std::int64_t> offsets_;
    std::vector<std::int64_t> values_;
};

} // namespace rap::data

#endif // RAP_DATA_COLUMN_HPP
