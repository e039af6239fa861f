/**
 * @file
 * Synthetic Criteo-like dataset presets and batch generator.
 *
 * The paper evaluates on Criteo Kaggle (33.7M total hash size) and Criteo
 * Terabyte (177.9M total hash size), both with 13 dense and 26 sparse
 * features (Table 2). Neither dataset ships with this repository, so a
 * seeded generator synthesises batches with the same shape: log-normal
 * dense values with injected nulls, and zipfian multi-hot sparse id lists
 * whose raw ids require hashing (SigridHash) before embedding lookup.
 */

#ifndef RAP_DATA_CRITEO_HPP
#define RAP_DATA_CRITEO_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/batch.hpp"
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

/**
 * Deterministic batch generator over a schema.
 */
class CriteoGenerator
{
  public:
    /** Construct for @p schema; all randomness derives from @p seed. */
    CriteoGenerator(Schema schema, std::uint64_t seed);

    /** Fraction of dense entries generated as null (default 5%). */
    void setNullProbability(double p);

    /** @return One fresh batch of @p rows rows. */
    RecordBatch generate(std::size_t rows);

    const Schema &schema() const { return schema_; }

  private:
    Schema schema_;
    Rng rng_;
    /** One id sampler per sparse feature (its hash size, skew 1.05). */
    std::vector<ZipfSampler> zipf_;
    double nullProb_ = 0.05;
};

} // namespace rap::data

#endif // RAP_DATA_CRITEO_HPP
