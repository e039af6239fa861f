#include "preproc/plan.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace rap::preproc {

namespace {

/** Chain-building state for one feature. */
struct Chain
{
    int featureId = -1;
    ColumnRef column;
    int tail = -1; // id of the last node appended
};

OpNode
makeNode(const Chain &chain, OpType type)
{
    OpNode node;
    node.type = type;
    node.featureId = chain.featureId;
    node.inputs = {chain.column};
    if (chain.tail >= 0)
        node.deps = {chain.tail};
    return node;
}

void
appendOp(PreprocGraph &graph, Chain &chain, OpType type)
{
    chain.tail = graph.addNode(makeNode(chain, type));
}

/** Append an Ngram that also reads @p other's column. */
void
appendNgram(PreprocGraph &graph, Chain &chain, const Chain &other)
{
    OpNode node = makeNode(chain, OpType::Ngram);
    if (!(other.column == chain.column)) {
        node.inputs.push_back(other.column);
        if (other.tail >= 0)
            node.deps.push_back(other.tail);
    }
    node.params.ngramN = 2;
    chain.tail = graph.addNode(std::move(node));
}

std::vector<Chain>
makeChains(const data::Schema &schema)
{
    std::vector<Chain> chains;
    for (std::size_t d = 0; d < schema.denseCount(); ++d) {
        Chain c;
        c.featureId = denseFeatureId(d);
        c.column = ColumnRef{data::FeatureKind::Dense, d};
        chains.push_back(c);
    }
    for (std::size_t s = 0; s < schema.sparseCount(); ++s) {
        Chain c;
        c.featureId = sparseFeatureId(schema, s);
        c.column = ColumnRef{data::FeatureKind::Sparse, s};
        chains.push_back(c);
    }
    return chains;
}

/** Fail fast when a builder produced a graph its schema cannot price. */
void
checkGraph(const PreprocGraph &graph)
{
    const auto result = graph.validate();
    RAP_ASSERT(result.ok(), "malformed preprocessing graph:\n",
               result.render());
}

/** The TorchArrow default pipeline: Plans 0 and 1 (104 ops). */
PreprocGraph
buildDefaultGraph(const data::Schema &schema)
{
    PreprocGraph graph(schema);
    auto chains = makeChains(schema);
    for (auto &chain : chains) {
        if (chain.column.kind == data::FeatureKind::Dense) {
            appendOp(graph, chain, OpType::FillNull);
            appendOp(graph, chain, OpType::Logit);
        } else {
            appendOp(graph, chain, OpType::FillNull);
            appendOp(graph, chain, OpType::SigridHash);
            appendOp(graph, chain, OpType::FirstX);
        }
    }
    return graph;
}

/** Randomly extended pipeline: Plans 2 and 3 (Table 3 totals). */
PreprocGraph
buildRandomGraph(const data::Schema &schema, std::size_t total_ops,
                 std::uint64_t seed)
{
    PreprocGraph graph(schema);
    auto chains = makeChains(schema);
    Rng rng(seed);

    // Mandatory prefix: FillNull everywhere, SigridHash on sparse.
    std::size_t used = 0;
    for (auto &chain : chains) {
        appendOp(graph, chain, OpType::FillNull);
        ++used;
        if (chain.column.kind == data::FeatureKind::Sparse) {
            appendOp(graph, chain, OpType::SigridHash);
            ++used;
        }
    }
    RAP_ASSERT(used <= total_ops,
               "plan total smaller than its mandatory prefix");

    const OpType dense_pool[] = {OpType::Logit, OpType::BoxCox,
                                 OpType::Cast, OpType::Onehot,
                                 OpType::Bucketize};
    const OpType sparse_pool[] = {OpType::FirstX, OpType::Clamp,
                                  OpType::MapId, OpType::Ngram,
                                  OpType::SigridHash};

    // Spread the remaining ops uniformly over features.
    const std::size_t dense_count = schema.denseCount();
    while (used < total_ops) {
        const auto pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(chains.size()) -
                                  1));
        auto &chain = chains[pick];
        if (chain.column.kind == data::FeatureKind::Dense) {
            appendOp(graph, chain,
                     dense_pool[rng.uniformInt(0, 4)]);
        } else {
            const OpType type = sparse_pool[rng.uniformInt(0, 4)];
            if (type == OpType::Ngram) {
                // Partner with the next sparse feature, cyclically.
                const std::size_t sparse_index = pick - dense_count;
                const std::size_t partner =
                    dense_count +
                    (sparse_index + 1) % schema.sparseCount();
                appendNgram(graph, chain, chains[partner]);
            } else {
                appendOp(graph, chain, type);
            }
        }
        ++used;
    }
    return graph;
}

} // namespace

PlanSpec
planSpec(int plan_id)
{
    switch (plan_id) {
      case 0:
        return PlanSpec{0, data::DatasetPreset::CriteoKaggle, 13, 26,
                        104};
      case 1:
        return PlanSpec{1, data::DatasetPreset::CriteoTerabyte, 13, 26,
                        104};
      case 2:
        return PlanSpec{2, data::DatasetPreset::CriteoTerabyte, 26, 52,
                        384};
      case 3:
        return PlanSpec{3, data::DatasetPreset::CriteoTerabyte, 52, 104,
                        1548};
      default:
        RAP_FATAL("unknown preprocessing plan id: ", plan_id,
                  " (expected 0..3)");
    }
}

PreprocPlan
makePlan(int plan_id, std::uint64_t seed)
{
    const PlanSpec spec = planSpec(plan_id);
    PreprocPlan plan;
    plan.spec = spec;
    const auto schema = data::makeScaledSchema(
        spec.dataset, spec.denseCount, spec.sparseCount);
    if (plan_id <= 1) {
        plan.graph = buildDefaultGraph(schema);
    } else {
        plan.graph = buildRandomGraph(schema, spec.totalOps, seed);
    }
    RAP_ASSERT(plan.graph.nodeCount() == spec.totalOps,
               "plan ", plan_id, " produced ", plan.graph.nodeCount(),
               " ops, expected ", spec.totalOps);
    checkGraph(plan.graph);
    return plan;
}

PreprocPlan
makeSkewedPlan(int plan_id, int heavy_features, int extra_heavy_ops,
               std::uint64_t seed)
{
    PreprocPlan plan = makePlan(plan_id, seed);
    const auto &schema = plan.graph.schema();

    // Hash sizes are descending by construction, so the first sparse
    // features are the ones a size-balancing sharder puts on GPU 0.
    const int heavy = std::min<int>(heavy_features,
                                    static_cast<int>(
                                        schema.sparseCount()));
    for (int s = 0; s < heavy; ++s) {
        const int feature_id =
            sparseFeatureId(schema, static_cast<std::size_t>(s));
        auto nodes = plan.graph.featureNodes(feature_id);
        const int tail = nodes.empty() ? -1 : nodes.back();
        // The extra feature-generation ops fan out flat from the
        // chain tail (no mutual dependencies), so horizontal fusion
        // can exploit them — the situation Figs. 11/12 study.
        for (int k = 0; k < extra_heavy_ops; ++k) {
            OpNode node;
            node.type = OpType::Ngram;
            node.featureId = feature_id;
            node.inputs = {ColumnRef{data::FeatureKind::Sparse,
                                     static_cast<std::size_t>(s)}};
            node.params.ngramN = 2;
            if (tail >= 0)
                node.deps = {tail};
            plan.graph.addNode(std::move(node));
        }
    }
    checkGraph(plan.graph);
    return plan;
}

void
addNgramStress(PreprocPlan &plan, int count)
{
    const auto &schema = plan.graph.schema();
    RAP_ASSERT(schema.sparseCount() > 0, "plan has no sparse features");
    std::vector<int> tails(schema.sparseCount());
    for (std::size_t s = 0; s < schema.sparseCount(); ++s) {
        const auto nodes = plan.graph.featureNodes(
            sparseFeatureId(schema, s));
        tails[s] = nodes.empty() ? -1 : nodes.back();
    }
    // Flat fan-out from each feature's tail: the added workload is
    // horizontally fusable, which is exactly the knob Fig. 11 turns.
    for (int k = 0; k < count; ++k) {
        const std::size_t s =
            static_cast<std::size_t>(k) % schema.sparseCount();
        OpNode node;
        node.type = OpType::Ngram;
        node.featureId = sparseFeatureId(schema, s);
        node.inputs = {ColumnRef{data::FeatureKind::Sparse, s}};
        node.params.ngramN = 2;
        if (tails[s] >= 0)
            node.deps = {tails[s]};
        plan.graph.addNode(std::move(node));
    }
    checkGraph(plan.graph);
}

} // namespace rap::preproc
