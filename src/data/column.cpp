#include "data/column.hpp"

#include "common/log.hpp"

namespace rap::data {

DenseColumn::DenseColumn(std::size_t rows)
    : values_(rows, 0.0f), valid_(rows, 1)
{
}

DenseColumn::DenseColumn(std::vector<float> values)
    : values_(std::move(values)), valid_(values_.size(), 1)
{
}

DenseColumn::DenseColumn(std::vector<float> values,
                         std::vector<std::uint8_t> valid)
    : values_(std::move(values)), valid_(std::move(valid))
{
    RAP_ASSERT(values_.size() == valid_.size(),
               "dense column values/validity size mismatch");
}

void
DenseColumn::set(std::size_t row, float v)
{
    RAP_ASSERT(row < values_.size(), "dense column row out of range");
    values_[row] = v;
    valid_[row] = 1;
}

void
DenseColumn::setNull(std::size_t row)
{
    RAP_ASSERT(row < values_.size(), "dense column row out of range");
    valid_[row] = 0;
}

std::size_t
DenseColumn::nullCount() const
{
    std::size_t n = 0;
    for (auto v : valid_)
        n += (v == 0);
    return n;
}

double
DenseColumn::byteSize() const
{
    return static_cast<double>(values_.size()) * (sizeof(float) + 1);
}

SparseColumn::SparseColumn()
    : offsets_{0}
{
}

SparseColumn::SparseColumn(std::vector<std::int64_t> offsets,
                           std::vector<std::int64_t> values)
    : offsets_(std::move(offsets)), values_(std::move(values))
{
    RAP_ASSERT(!offsets_.empty(), "sparse column offsets may not be empty");
    RAP_ASSERT(offsets_.front() == 0, "sparse offsets must start at 0");
    for (std::size_t i = 1; i < offsets_.size(); ++i) {
        RAP_ASSERT(offsets_[i] >= offsets_[i - 1],
                   "sparse offsets must be monotone");
    }
    RAP_ASSERT(static_cast<std::size_t>(offsets_.back()) == values_.size(),
               "sparse offsets must end at the value count");
}

std::size_t
SparseColumn::listLength(std::size_t row) const
{
    RAP_ASSERT(row + 1 < offsets_.size(), "sparse column row out of range");
    return static_cast<std::size_t>(offsets_[row + 1] - offsets_[row]);
}

std::int64_t
SparseColumn::value(std::size_t row, std::size_t i) const
{
    RAP_ASSERT(i < listLength(row), "sparse column index out of range");
    return values_[static_cast<std::size_t>(offsets_[row]) + i];
}

void
SparseColumn::appendRow(std::span<const std::int64_t> ids)
{
    values_.insert(values_.end(), ids.begin(), ids.end());
    offsets_.push_back(static_cast<std::int64_t>(values_.size()));
}

double
SparseColumn::avgListLength() const
{
    if (size() == 0)
        return 0.0;
    return static_cast<double>(values_.size()) /
           static_cast<double>(size());
}

double
SparseColumn::byteSize() const
{
    return static_cast<double>(offsets_.size() + values_.size()) *
           sizeof(std::int64_t);
}

} // namespace rap::data
