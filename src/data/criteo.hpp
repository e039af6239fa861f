/**
 * @file
 * Criteo dataset presets as schemas.
 *
 * The paper evaluates on Criteo Kaggle (33.7M total hash size) and Criteo
 * Terabyte (177.9M total hash size), both with 13 dense and 26 sparse
 * features (Table 2). Neither dataset ships with this repository, and
 * none is needed: the cost model prices preprocessing from a schema's
 * feature counts, hash sizes and mean list lengths, never from values.
 */

#ifndef RAP_DATA_CRITEO_HPP
#define RAP_DATA_CRITEO_HPP

#include <cstddef>
#include <string>

#include "data/schema.hpp"

namespace rap::data {

/** Identifier of a built-in dataset preset. */
enum class DatasetPreset {
    CriteoKaggle,
    CriteoTerabyte,
};

/** @return Human-readable preset name ("Criteo Kaggle", ...). */
std::string datasetPresetName(DatasetPreset preset);

/**
 * Build the schema for a built-in preset: 13 dense + 26 sparse features,
 * per-table hash sizes skewed (zipf-style weights) so that they sum to
 * the paper's total hash size (33.7M Kaggle, 177.9M Terabyte).
 */
Schema makePresetSchema(DatasetPreset preset);

/**
 * Build a scaled variant of a preset schema with the given feature
 * counts, used by preprocessing Plans 2 and 3 (Table 3), which double and
 * quadruple the feature counts. Per-table hash sizes keep the preset's
 * total by splitting the skewed weights over more tables.
 */
Schema makeScaledSchema(DatasetPreset preset, std::size_t dense_count,
                        std::size_t sparse_count);

} // namespace rap::data

#endif // RAP_DATA_CRITEO_HPP
