#include "data/criteo.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace rap::data {

namespace {

constexpr std::int64_t kKaggleTotalHash = 33'700'000;
constexpr std::int64_t kTerabyteTotalHash = 177'900'000;

/**
 * Split @p total across @p n tables with zipf-style weights 1/(i+1)^1.2,
 * matching the long-tailed table-size distribution of real Criteo data.
 */
std::vector<std::int64_t>
skewedHashSizes(std::int64_t total, std::size_t n)
{
    std::vector<double> weights(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.2);
        sum += weights[i];
    }
    std::vector<std::int64_t> sizes(n);
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sizes[i] = std::max<std::int64_t>(
            2, static_cast<std::int64_t>(
                   std::floor(static_cast<double>(total) * weights[i] /
                              sum)));
        assigned += sizes[i];
    }
    // Put any rounding remainder on the largest table.
    if (assigned < total)
        sizes[0] += total - assigned;
    return sizes;
}

/** Deterministic per-feature mean list length: mostly one-hot, some long. */
double
presetListLength(std::size_t sparse_index)
{
    switch (sparse_index % 5) {
      case 0: return 1.0;
      case 1: return 1.0;
      case 2: return 2.0;
      case 3: return 4.0;
      default: return 8.0;
    }
}

Schema
buildSchema(std::int64_t total_hash, std::size_t dense_count,
            std::size_t sparse_count)
{
    Schema schema;
    for (std::size_t i = 0; i < dense_count; ++i)
        schema.addDense("int_" + std::to_string(i));
    const auto sizes = skewedHashSizes(total_hash, sparse_count);
    for (std::size_t i = 0; i < sparse_count; ++i) {
        schema.addSparse("cat_" + std::to_string(i), sizes[i],
                         presetListLength(i));
    }
    return schema;
}

} // namespace

std::string
datasetPresetName(DatasetPreset preset)
{
    switch (preset) {
      case DatasetPreset::CriteoKaggle: return "Criteo Kaggle";
      case DatasetPreset::CriteoTerabyte: return "Criteo Terabyte";
    }
    return "?";
}

Schema
makePresetSchema(DatasetPreset preset)
{
    return makeScaledSchema(preset, 13, 26);
}

Schema
makeScaledSchema(DatasetPreset preset, std::size_t dense_count,
                 std::size_t sparse_count)
{
    RAP_ASSERT(dense_count > 0 && sparse_count > 0,
               "schema needs at least one dense and one sparse feature");
    const std::int64_t total = preset == DatasetPreset::CriteoKaggle
                                   ? kKaggleTotalHash
                                   : kTerabyteTotalHash;
    return buildSchema(total, dense_count, sparse_count);
}

} // namespace rap::data
