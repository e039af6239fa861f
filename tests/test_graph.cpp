/**
 * @file
 * Unit tests for the preprocessing DAG container.
 */

#include <gtest/gtest.h>

#include "data/criteo.hpp"
#include "preproc/graph.hpp"

namespace rap::preproc {
namespace {

using data::FeatureKind;

OpNode
makeNode(OpType type, int feature, std::vector<int> deps,
         std::size_t column = 0,
         FeatureKind kind = FeatureKind::Sparse)
{
    OpNode node;
    node.type = type;
    node.featureId = feature;
    node.deps = std::move(deps);
    node.inputs = {ColumnRef{kind, column}};
    return node;
}

PreprocGraph
diamondGraph()
{
    // 0 -> {1, 2} -> 3 on one feature.
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    const int a = graph.addNode(makeNode(OpType::FillNull, 13, {}));
    const int b =
        graph.addNode(makeNode(OpType::SigridHash, 13, {a}));
    const int c = graph.addNode(makeNode(OpType::Clamp, 13, {a}));
    graph.addNode(makeNode(OpType::FirstX, 13, {b, c}));
    return graph;
}

TEST(PreprocGraph, AddNodeAssignsSequentialIds)
{
    auto graph = diamondGraph();
    EXPECT_EQ(graph.nodeCount(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(graph.node(i).id, i);
}

TEST(PreprocGraph, TopoOrderRespectsDeps)
{
    auto graph = diamondGraph();
    const auto order = graph.topoOrder();
    std::vector<int> position(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        position[static_cast<std::size_t>(order[i])] =
            static_cast<int>(i);
    for (const auto &node : graph.nodes()) {
        for (int dep : node.deps) {
            EXPECT_LT(position[static_cast<std::size_t>(dep)],
                      position[static_cast<std::size_t>(node.id)]);
        }
    }
}

TEST(PreprocGraphDeath, ForwardDependencyRejected)
{
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    EXPECT_DEATH(graph.addNode(makeNode(OpType::FillNull, 13, {3})),
                 "earlier node");
}

TEST(PreprocGraph, FeatureNodesFiltersByFeature)
{
    auto graph = diamondGraph();
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 1));
    EXPECT_EQ(graph.featureNodes(13).size(), 4u);
    EXPECT_EQ(graph.featureNodes(14).size(), 1u);
    EXPECT_TRUE(graph.featureNodes(99).empty());
}

TEST(PreprocGraph, FeatureIdsSortedUnique)
{
    auto graph = diamondGraph();
    graph.addNode(makeNode(OpType::FillNull, 20, {}, 1));
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 2));
    EXPECT_EQ(graph.featureIds(), (std::vector<int>{13, 14, 20}));
}

TEST(PreprocGraph, ReachabilityIsTransitive)
{
    auto graph = diamondGraph();
    const auto reach = graph.reachability();
    EXPECT_TRUE(reach[3][0]); // via either branch
    EXPECT_TRUE(reach[3][1]);
    EXPECT_TRUE(reach[3][2]);
    EXPECT_TRUE(reach[1][0]);
    EXPECT_FALSE(reach[0][3]);
    EXPECT_FALSE(reach[1][2]); // branches independent
    EXPECT_FALSE(reach[2][1]);
}

TEST(PreprocGraph, OpsPerFeature)
{
    auto graph = diamondGraph();
    EXPECT_DOUBLE_EQ(graph.opsPerFeature(), 4.0);
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 1));
    EXPECT_DOUBLE_EQ(graph.opsPerFeature(), 2.5);
}

TEST(PreprocGraph, SubgraphExtractsFeatureWithDeps)
{
    auto graph = diamondGraph();
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 1));
    const auto sub = graph.subgraphForFeatures({13});
    EXPECT_EQ(sub.nodeCount(), 4u);
    EXPECT_TRUE(sub.validate().ok());
    const auto sub2 = graph.subgraphForFeatures({14});
    EXPECT_EQ(sub2.nodeCount(), 1u);
}

TEST(PreprocGraph, SubgraphPullsCrossFeaturePrerequisites)
{
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    const int other = graph.addNode(makeNode(OpType::FillNull, 14, {},
                                             1));
    auto ngram = makeNode(OpType::Ngram, 13, {other});
    ngram.inputs.push_back(ColumnRef{FeatureKind::Sparse, 1});
    graph.addNode(std::move(ngram));
    const auto sub = graph.subgraphForFeatures({13});
    // The feature-14 prerequisite is pulled in by dependency closure.
    EXPECT_EQ(sub.nodeCount(), 2u);
}

TEST(PreprocGraph, OpTypeHistogramCounts)
{
    auto graph = diamondGraph();
    const auto histogram = graph.opTypeHistogram();
    EXPECT_EQ(histogram[static_cast<std::size_t>(OpType::FillNull)],
              1u);
    EXPECT_EQ(histogram[static_cast<std::size_t>(OpType::SigridHash)],
              1u);
    EXPECT_EQ(histogram[static_cast<std::size_t>(OpType::Ngram)], 0u);
}

TEST(PreprocGraphDeath, ValidateRejectsInputlessNodes)
{
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    OpNode node;
    node.type = OpType::FillNull;
    node.featureId = 0;
    graph.addNode(std::move(node));
    const auto result = graph.validate();
    ASSERT_EQ(result.errors().size(), 1u);
    EXPECT_EQ(result.errors()[0].field, "nodes[0].inputs");
    EXPECT_EQ(result.errors()[0].message, "node has no inputs");
}

TEST(PreprocGraph, ValidateReportsEveryOutOfRangeField)
{
    // One node reads a sparse column past the schema, another names a
    // feature past it: both are reported at once, by field.
    data::Schema schema;
    schema.addDense("d");
    schema.addSparse("s", 100, 6.0);
    PreprocGraph graph(schema);
    graph.addNode(makeNode(OpType::FillNull, 0, {}, 0,
                           FeatureKind::Dense));
    graph.addNode(makeNode(OpType::FirstX, 1, {}, 7));
    graph.addNode(makeNode(OpType::SigridHash, 9, {1}, 0));
    const auto result = graph.validate();
    ASSERT_EQ(result.errors().size(), 2u);
    EXPECT_EQ(result.errors()[0].field, "nodes[1].inputs[0]");
    EXPECT_EQ(result.errors()[0].message,
              "sparse column 7 is out of range; the schema has 1");
    EXPECT_EQ(result.errors()[1].field, "nodes[2].featureId");
    EXPECT_EQ(result.errors()[1].message,
              "feature id 9 is out of range [0, 2)");
}

} // namespace
} // namespace rap::preproc
