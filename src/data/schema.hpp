/**
 * @file
 * Feature schema for DLRM input batches.
 *
 * A schema lists the dense and sparse features of a dataset along with
 * the embedding hash size of each sparse feature (which determines the
 * embedding table row count and, through sharding, which GPU consumes
 * the preprocessed output of that feature).
 */

#ifndef RAP_DATA_SCHEMA_HPP
#define RAP_DATA_SCHEMA_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace rap::data {

/** Whether a feature is continuous (dense) or categorical (sparse). */
enum class FeatureKind {
    Dense,
    Sparse,
};

/** Description of one input feature. */
struct FeatureSpec
{
    std::string name;
    FeatureKind kind = FeatureKind::Dense;
    /** Embedding hash space size; only meaningful for sparse features. */
    std::int64_t hashSize = 0;
    /** Mean multi-hot list length; only meaningful for sparse features. */
    double avgListLength = 1.0;
};

/**
 * Ordered collection of feature specs: all dense features first, then all
 * sparse features, matching the Criteo layout.
 */
class Schema
{
  public:
    Schema() = default;

    /** Append a dense feature named @p name. */
    void addDense(std::string name);

    /** Append a sparse feature with its hash size and mean list length. */
    void addSparse(std::string name, std::int64_t hash_size,
                   double avg_list_length = 1.0);

    std::size_t denseCount() const { return dense_.size(); }
    std::size_t sparseCount() const { return sparse_.size(); }
    std::size_t featureCount() const
    {
        return dense_.size() + sparse_.size();
    }

    const FeatureSpec &dense(std::size_t i) const;
    const FeatureSpec &sparse(std::size_t i) const;

    /** @return Sum of all sparse hash sizes (paper Table 2 "Total Hash"). */
    std::int64_t totalHashSize() const;

  private:
    std::vector<FeatureSpec> dense_;
    std::vector<FeatureSpec> sparse_;
};

} // namespace rap::data

#endif // RAP_DATA_SCHEMA_HPP
