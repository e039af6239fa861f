/**
 * @file
 * The input-preprocessing DAG.
 *
 * Each input feature needs a chain (in general, a DAG) of preprocessing
 * operations (§2.3). Nodes are operator instances bound to the schema
 * features they read; edges are data dependencies. A node's
 * featureId names the feature whose embedding table (sparse) or MLP
 * input slot (dense) consumes its final output — the unit at which the
 * mapping search (§7.2) moves work between GPUs.
 */

#ifndef RAP_PREPROC_GRAPH_HPP
#define RAP_PREPROC_GRAPH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/validation.hpp"
#include "data/schema.hpp"
#include "preproc/op_params.hpp"
#include "preproc/op_types.hpp"

namespace rap::preproc {

/** Reference to one schema feature: the index-th dense or sparse one. */
struct ColumnRef
{
    data::FeatureKind kind = data::FeatureKind::Dense;
    std::size_t index = 0;

    bool
    operator==(const ColumnRef &o) const
    {
        return kind == o.kind && index == o.index;
    }
};

/** One operator instance in the preprocessing DAG. */
struct OpNode
{
    /** Dense id of the node within its graph. */
    int id = -1;
    OpType type = OpType::FillNull;
    OpParams params;
    /** Ids of nodes this node depends on (graph-local). */
    std::vector<int> deps;
    /** Input columns (Ngram reads several). */
    std::vector<ColumnRef> inputs;
    /**
     * Feature whose consumer this node's chain feeds. Convention:
     * dense feature d has featureId = d; sparse feature s has
     * featureId = denseCount + s.
     */
    int featureId = -1;
};

/**
 * A DAG of preprocessing operator instances over a feature schema.
 */
class PreprocGraph
{
  public:
    PreprocGraph() = default;

    /** Construct for @p schema (kept by value; schemas are small). */
    explicit PreprocGraph(data::Schema schema);

    /**
     * Append a node; deps must reference existing node ids.
     * @return The id assigned to the node.
     */
    int addNode(OpNode node);

    std::size_t nodeCount() const { return nodes_.size(); }
    const OpNode &node(int id) const;
    const std::vector<OpNode> &nodes() const { return nodes_; }
    const data::Schema &schema() const { return schema_; }

    /** @return Node ids in a valid topological order. */
    std::vector<int> topoOrder() const;

    /** @return ids of nodes belonging to @p feature_id, in topo order. */
    std::vector<int> featureNodes(int feature_id) const;

    /** @return All distinct featureIds present, ascending. */
    std::vector<int> featureIds() const;

    /**
     * @return Dependency-closure reachability: result[i][j] is true when
     *         node j is a (transitive) prerequisite of node i.
     */
    std::vector<std::vector<bool>> reachability() const;

    /** @return Mean number of operations per feature (Table 3 metric). */
    double opsPerFeature() const;

    /**
     * Check every node against the schema: it has at least one input,
     * each input names a schema feature of its kind, and its featureId
     * names a schema feature. Errors name the field, e.g.
     * "nodes[3].inputs[0]" or "nodes[3].featureId". Dependencies need
     * no check here: addNode only accepts earlier nodes.
     */
    ValidationResult validate() const;

    /**
     * Extract the subgraph containing exactly the features in
     * @p feature_ids, renumbering node ids densely while preserving
     * structure. Cross-feature dependencies (Ngram inputs) pull in the
     * producing nodes of other features as needed.
     */
    PreprocGraph subgraphForFeatures(
        const std::vector<int> &feature_ids) const;

    /** @return Count of nodes per operator type. */
    std::vector<std::size_t> opTypeHistogram() const;

  private:
    data::Schema schema_;
    std::vector<OpNode> nodes_;
};

} // namespace rap::preproc

#endif // RAP_PREPROC_GRAPH_HPP
