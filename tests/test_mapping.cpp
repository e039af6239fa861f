/**
 * @file
 * Tests for preprocessing-graph mapping strategies (§3, §7.2).
 */

#include <gtest/gtest.h>

#include "core/mapping.hpp"

namespace rap::core {
namespace {

struct Fixture
{
    explicit Fixture(int gpus = 4, int plan_id = 0)
        : plan(preproc::makePlan(plan_id)),
          clusterSpec(sim::dgxA100Spec(gpus)),
          sharding(dlrm::EmbeddingSharding::balanced(plan.graph.schema(),
                                                     gpus)),
          mapper(plan, sharding, clusterSpec, 4096)
    {
    }
    preproc::PreprocPlan plan;
    sim::ClusterSpec clusterSpec;
    dlrm::EmbeddingSharding sharding;
    GraphMapper mapper;
};

TEST(Mapping, StrategyNames)
{
    EXPECT_EQ(mappingStrategyName(MappingStrategy::DataParallel), "DP");
    EXPECT_EQ(mappingStrategyName(MappingStrategy::DataLocality), "DL");
    EXPECT_EQ(mappingStrategyName(MappingStrategy::Rap), "RAP");
}

TEST(Mapping, ConsumerRouting)
{
    Fixture f;
    // Dense items are consumed by their batch's GPU.
    EXPECT_EQ(f.mapper.consumer(WorkItem{0, 2}), 2);
    // Sparse items are consumed by the table owner, batch-independent.
    const int fid = preproc::sparseFeatureId(f.plan.graph.schema(), 0);
    const int owner = f.sharding.owner(0);
    EXPECT_EQ(f.mapper.consumer(WorkItem{fid, 0}), owner);
    EXPECT_EQ(f.mapper.consumer(WorkItem{fid, 3}), owner);
}

TEST(Mapping, DataParallelAssignsBatchesWholesale)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataParallel);
    ASSERT_EQ(mapping.gpuCount(), 4);
    const std::size_t features = f.plan.graph.schema().featureCount();
    for (int g = 0; g < 4; ++g) {
        EXPECT_EQ(mapping.itemsPerGpu[static_cast<std::size_t>(g)]
                      .size(),
                  features);
        for (const auto &item :
             mapping.itemsPerGpu[static_cast<std::size_t>(g)]) {
            EXPECT_EQ(item.batch, g);
        }
    }
    EXPECT_EQ(mapping.totalItems(), features * 4);
}

TEST(Mapping, DataParallelHasCommunication)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataParallel);
    Bytes total = 0.0;
    for (Bytes b : mapping.commOutBytes)
        total += b;
    EXPECT_GT(total, 0.0);
}

TEST(Mapping, DataLocalityHasZeroCommunication)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataLocality);
    for (Bytes b : mapping.commOutBytes)
        EXPECT_DOUBLE_EQ(b, 0.0);
    EXPECT_EQ(mapping.totalItems(),
              f.plan.graph.schema().featureCount() * 4);
}

TEST(Mapping, DataLocalityPlacesItemsOnConsumers)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataLocality);
    for (int g = 0; g < mapping.gpuCount(); ++g) {
        for (const auto &item :
             mapping.itemsPerGpu[static_cast<std::size_t>(g)]) {
            EXPECT_EQ(f.mapper.consumer(item), g);
        }
    }
}

TEST(Mapping, BuildGpuGraphReplicatesChains)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataParallel);
    const auto graph = f.mapper.buildGpuGraph(mapping, 0);
    // GPU 0 preprocesses one full batch: the whole plan once.
    EXPECT_EQ(graph.nodeCount(), f.plan.graph.nodeCount());
    EXPECT_TRUE(graph.validate().ok());
}

TEST(Mapping, BuildGpuGraphCoversAllNodesAcrossGpus)
{
    Fixture f(4, 2); // plan 2: random chains incl. Ngram
    const auto mapping = f.mapper.map(MappingStrategy::DataLocality);
    std::size_t total = 0;
    for (int g = 0; g < 4; ++g) {
        const auto graph = f.mapper.buildGpuGraph(mapping, g);
        EXPECT_TRUE(graph.validate().ok());
        total += graph.nodeCount();
    }
    // Every feature chain appears once per batch (4 batches total).
    EXPECT_EQ(total, f.plan.graph.nodeCount() * 4);
}

TEST(Mapping, FeatureByteHelpers)
{
    Fixture f;
    const int dense_id = 0;
    const int sparse_id = preproc::sparseFeatureId(f.plan.graph.schema(), 0);
    EXPECT_GT(f.mapper.featureOutputBytes(dense_id), 0.0);
    EXPECT_GT(f.mapper.featureOutputBytes(sparse_id), 0.0);
    EXPECT_GT(f.mapper.featureRawBytes(dense_id), 0.0);
    EXPECT_GT(f.mapper.featureRawBytes(sparse_id),
              f.mapper.featureRawBytes(dense_id));
    EXPECT_GT(f.mapper.featureChainLatency(sparse_id), 0.0);
}

TEST(Mapping, RapKeepsLocalityWhenBalanced)
{
    // With a balanced plan nothing is exposed, so the joint search
    // should stay at the zero-communication data-locality mapping.
    Fixture f;
    OverlappingCapacityEstimator estimator(
        f.clusterSpec,
        dlrm::makeDlrmConfig(f.plan.spec.dataset, f.plan.graph.schema()),
        f.sharding);
    const auto profiles = estimator.profileAll();
    HorizontalFusionPlanner planner(f.clusterSpec.gpu);
    const auto mapping = f.mapper.mapRap(profiles, planner).mapping;
    for (Bytes b : mapping.commOutBytes)
        EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Mapping, RapRebalancesSkewedPlan)
{
    // Fig. 12 scenario: the features owned by GPU 0 carry far more
    // preprocessing work under data locality. The skew is made strong
    // enough that DL's hot GPU exceeds its overlapping capacity.
    const auto plan = preproc::makeSkewedPlan(0, 4, 3000);
    const auto cluster_spec = sim::dgxA100Spec(4);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 4);
    GraphMapper mapper(plan, sharding, cluster_spec, 4096);

    OverlappingCapacityEstimator estimator(
        cluster_spec,
        dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema()), sharding);
    const auto profiles = estimator.profileAll();
    HorizontalFusionPlanner planner(cluster_spec.gpu);

    CoRunningCostModel cost_model(cluster_spec);
    auto worstDelta = [&](const GraphMapping &mapping) {
        Seconds worst = -1e9;
        for (int g = 0; g < 4; ++g) {
            const auto kernels = planner.plan(
                mapper.buildGpuGraph(mapping, g), 4096);
            worst = std::max(
                worst,
                cost_model
                    .evaluate(kernels,
                              profiles[static_cast<std::size_t>(g)],
                              mapping.commOutBytes[
                                  static_cast<std::size_t>(g)])
                    .delta());
        }
        return worst;
    };

    const auto dl = mapper.map(MappingStrategy::DataLocality);
    const auto rap = mapper.mapRap(profiles, planner).mapping;
    EXPECT_EQ(rap.totalItems(), dl.totalItems());

    const Seconds dl_worst = worstDelta(dl);
    const Seconds rap_worst = worstDelta(rap);
    // DL must actually be overloaded for the scenario to bite.
    ASSERT_GT(dl_worst, 0.0);
    // The joint search strictly improves the worst-case exposure and
    // pays for it with some communication.
    EXPECT_LT(rap_worst, dl_worst);
    Bytes rap_comm = 0.0;
    for (Bytes b : rap.commOutBytes)
        rap_comm += b;
    EXPECT_GT(rap_comm, 0.0);
}

/**
 * Checks @p mapper's chain tables against the plan graph: node lists
 * against featureNodes, output bytes against the tail node's output and
 * latency against the unfused exclusive latencies summed in chain order.
 */
void
expectChainsMatchGraph(const GraphMapper &mapper,
                       const preproc::PreprocPlan &plan,
                       const sim::GpuSpec &gpu, std::int64_t rows)
{
    for (int f : plan.graph.featureIds()) {
        SCOPED_TRACE("feature " + std::to_string(f));
        const auto nodes = plan.graph.featureNodes(f);
        ASSERT_FALSE(nodes.empty());
        EXPECT_EQ(mapper.featureChain(f), nodes);
        const auto &tail = plan.graph.node(nodes.back());
        EXPECT_EQ(mapper.featureOutputBytes(f),
                  preproc::opOutputBytes(
                      tail.type,
                      preproc::nodeShape(tail, plan.graph.schema(), rows)));
        Seconds latency = 0.0;
        for (int id : nodes) {
            const auto &node = plan.graph.node(id);
            latency += preproc::makeOpKernel(
                           node.type,
                           preproc::nodeShape(node, plan.graph.schema(), rows),
                           gpu)
                           .exclusiveLatency;
        }
        EXPECT_EQ(mapper.featureChainLatency(f), latency);
    }
}

TEST(MappingChains, TablesMatchFeatureNodesOnEveryPlan)
{
    std::vector<preproc::PreprocPlan> plans;
    for (int plan_id = 0; plan_id < 4; ++plan_id)
        plans.push_back(preproc::makePlan(plan_id));
    plans.push_back(preproc::makeSkewedPlan(0, 4, 3000));
    const auto cluster_spec = sim::dgxA100Spec(4);
    for (std::size_t i = 0; i < plans.size(); ++i) {
        SCOPED_TRACE("plan " + std::to_string(i));
        const auto &plan = plans[i];
        const auto sharding =
            dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 4);
        const GraphMapper mapper(plan, sharding, cluster_spec, 4096);
        expectChainsMatchGraph(mapper, plan, cluster_spec.gpu, 4096);
        // A feature without nodes has an empty chain.
        const int absent = plan.graph.featureIds().back() + 1;
        EXPECT_TRUE(mapper.featureChain(absent).empty());
        EXPECT_EQ(mapper.featureOutputBytes(absent), 0.0);
        EXPECT_EQ(mapper.featureChainLatency(absent), 0.0);
    }
}

TEST(MappingChains, FollowKahnOrderNotIdOrder)
{
    // Feature B = 1 owns nodes 0 and 1; feature A = 0 owns node 2
    // (which reads B's output) and node 3 (no deps). Kahn's queue
    // starts {0, 3}, so A's chain is {3, 2}, not id order.
    auto plan = preproc::makePlan(0);
    const int a = 0;
    const int b = 1;
    auto node = [](preproc::OpType type, int feature,
                   std::vector<int> deps) {
        preproc::OpNode n;
        n.type = type;
        n.featureId = feature;
        n.deps = std::move(deps);
        n.inputs = {preproc::ColumnRef{
            data::FeatureKind::Dense,
            static_cast<std::size_t>(feature)}};
        return n;
    };
    preproc::PreprocGraph graph(plan.graph.schema());
    graph.addNode(node(preproc::OpType::FillNull, b, {}));
    graph.addNode(node(preproc::OpType::Clamp, b, {0}));
    graph.addNode(node(preproc::OpType::Logit, a, {1}));
    graph.addNode(node(preproc::OpType::FillNull, a, {}));
    plan.graph = std::move(graph);
    ASSERT_EQ(plan.graph.featureNodes(a), (std::vector<int>{3, 2}));

    const auto cluster_spec = sim::dgxA100Spec(2);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 2);
    const GraphMapper mapper(plan, sharding, cluster_spec, 4096);
    EXPECT_EQ(mapper.featureChain(a), (std::vector<int>{3, 2}));
    EXPECT_EQ(mapper.featureChain(b), (std::vector<int>{0, 1}));
    expectChainsMatchGraph(mapper, plan, cluster_spec.gpu, 4096);
}

TEST(MappingDeath, MismatchedShardingPanics)
{
    const auto plan = preproc::makePlan(0);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 2);
    EXPECT_DEATH(GraphMapper(plan, sharding, sim::dgxA100Spec(4), 4096),
                 "does not match");
}

} // namespace
} // namespace rap::core
