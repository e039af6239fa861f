/**
 * @file
 * Input-preprocessing plan presets (paper Table 3) and plan synthesis.
 *
 * Plans 0 and 1 follow TorchArrow's default Criteo preprocessing
 * pipeline (FillNull on every feature, Logit normalisation for dense,
 * SigridHash + FirstX for sparse), giving 104 operations. Plans 2 and 3
 * double/quadruple the feature counts and randomly extend each
 * feature's chain with additional operators, matching Table 3's
 * operation totals (384 and 1548).
 */

#ifndef RAP_PREPROC_PLAN_HPP
#define RAP_PREPROC_PLAN_HPP

#include <cstdint>

#include "data/criteo.hpp"
#include "preproc/graph.hpp"

namespace rap::preproc {

/** Static description of a preprocessing plan preset (Table 3). */
struct PlanSpec
{
    int id = 0;
    data::DatasetPreset dataset = data::DatasetPreset::CriteoKaggle;
    std::size_t denseCount = 13;
    std::size_t sparseCount = 26;
    std::size_t totalOps = 104;
};

/** @return The Table-3 spec for plan @p plan_id in [0, 3]. */
PlanSpec planSpec(int plan_id);

/**
 * A preprocessing DAG and the spec it was built from. The graph holds
 * the plan's one schema, so PreprocGraph::validate checks every schema
 * a run reads.
 */
struct PreprocPlan
{
    PlanSpec spec;
    PreprocGraph graph;
};

/**
 * Build preprocessing plan @p plan_id (0..3). Plans 2 and 3 use @p seed
 * to draw the random operator chains; plans 0 and 1 are deterministic.
 */
PreprocPlan makePlan(int plan_id, std::uint64_t seed = 0x52415021ULL);

/**
 * Build a skewed variant of plan @p plan_id for the mapping study
 * (Fig. 12): the sparse features with the largest hash sizes — the ones
 * the sharder places on GPU 0 — receive @p extra_heavy_ops additional
 * feature-generation operations each, on the first @p heavy_features
 * features.
 */
PreprocPlan makeSkewedPlan(int plan_id, int heavy_features,
                           int extra_heavy_ops,
                           std::uint64_t seed = 0x52415021ULL);

/**
 * Append @p count extra Ngram operations to @p plan, spread round-robin
 * over the sparse features (the Fig. 11 workload-growth knob). Each new
 * node depends on its feature's current chain tail.
 */
void addNgramStress(PreprocPlan &plan, int count);

/**
 * Convention helper: the featureId of dense feature @p dense_index.
 */
inline int
denseFeatureId(std::size_t dense_index)
{
    return static_cast<int>(dense_index);
}

/**
 * Convention helper: the featureId of sparse feature @p sparse_index
 * under @p schema (dense features occupy the low ids).
 */
inline int
sparseFeatureId(const data::Schema &schema, std::size_t sparse_index)
{
    return static_cast<int>(schema.denseCount() + sparse_index);
}

/** @return True when @p feature_id denotes a sparse feature. */
inline bool
isSparseFeatureId(const data::Schema &schema, int feature_id)
{
    return feature_id >= static_cast<int>(schema.denseCount());
}

/** @return The sparse index of a sparse @p feature_id. */
inline std::size_t
sparseIndexOfFeatureId(const data::Schema &schema, int feature_id)
{
    return static_cast<std::size_t>(feature_id) - schema.denseCount();
}

} // namespace rap::preproc

#endif // RAP_PREPROC_PLAN_HPP
