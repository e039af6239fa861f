/**
 * @file
 * Building a custom preprocessing pipeline against the public API:
 * hand-construct a DAG with cross-feature NGram generation, inspect the
 * MILP fusion plan and the co-running schedule, emit the generated
 * PyTorch-style frontend (paper §4, step 3), and train with the plan on
 * two simulated GPUs through the validated RunRequest API.
 */

#include <iostream>

#include "common/table.hpp"
#include "core/rap.hpp"

namespace {

using namespace rap;

/** A small custom schema: 2 dense + 4 sparse features. */
data::Schema
makeCustomSchema()
{
    data::Schema schema;
    schema.addDense("user_age");
    schema.addDense("session_time");
    schema.addSparse("item_history", 2'000'000, 6.0);
    schema.addSparse("category", 50'000, 2.0);
    schema.addSparse("advertiser", 100'000, 1.0);
    schema.addSparse("query_terms", 5'000'000, 4.0);
    return schema;
}

/** Hand-built preprocessing DAG over the custom schema. */
preproc::PreprocGraph
makeCustomGraph(const data::Schema &schema)
{
    using preproc::ColumnRef;
    using preproc::OpNode;
    using preproc::OpType;

    preproc::PreprocGraph graph(schema);
    auto chain = [&](OpType type, data::FeatureKind kind,
                     std::size_t column, int feature,
                     std::vector<int> deps = {}) {
        OpNode node;
        node.type = type;
        node.inputs = {ColumnRef{kind, column}};
        node.featureId = feature;
        node.deps = std::move(deps);
        return graph.addNode(node);
    };

    // Dense: FillNull -> BoxCox normalisation.
    for (std::size_t d = 0; d < schema.denseCount(); ++d) {
        const int fill = chain(OpType::FillNull,
                               data::FeatureKind::Dense, d,
                               static_cast<int>(d));
        chain(OpType::BoxCox, data::FeatureKind::Dense, d,
              static_cast<int>(d), {fill});
    }
    // Sparse: FillNull -> SigridHash -> FirstX.
    std::vector<int> tails;
    for (std::size_t s = 0; s < schema.sparseCount(); ++s) {
        const int feature =
            preproc::sparseFeatureId(schema, s);
        const int fill = chain(OpType::FillNull,
                               data::FeatureKind::Sparse, s, feature);
        const int hash = chain(OpType::SigridHash,
                               data::FeatureKind::Sparse, s, feature,
                               {fill});
        tails.push_back(chain(OpType::FirstX,
                              data::FeatureKind::Sparse, s, feature,
                              {hash}));
    }
    // Cross-feature generation: item_history x category bigrams.
    OpNode ngram;
    ngram.type = OpType::Ngram;
    ngram.inputs = {ColumnRef{data::FeatureKind::Sparse, 0},
                    ColumnRef{data::FeatureKind::Sparse, 1}};
    ngram.featureId = preproc::sparseFeatureId(schema, 0);
    ngram.deps = {tails[0], tails[1]};
    ngram.params.ngramN = 2;
    graph.addNode(std::move(ngram));
    return graph;
}

} // namespace

int
main()
{
    using namespace rap;

    const auto schema = makeCustomSchema();
    const auto graph = makeCustomGraph(schema);
    std::cout << "custom pipeline: " << graph.nodeCount()
              << " ops over " << schema.featureCount()
              << " features ("
              << AsciiTable::num(graph.opsPerFeature(), 2)
              << " ops/feature)\n\n";

    // 1. Solve the fusion MILP and show the plan.
    const auto spec = sim::a100Spec();
    core::HorizontalFusionPlanner planner(spec);
    const auto kernels = planner.plan(graph, 4096);
    AsciiTable fusion({"step", "kernel", "fused width",
                       "pred latency", "SM demand"});
    for (const auto &k : kernels) {
        fusion.addRow({std::to_string(k.step),
                       preproc::opTypeName(k.type),
                       std::to_string(k.width()),
                       formatSeconds(k.predictedLatency),
                       AsciiTable::num(k.kernel.demand.sm * 100, 1) +
                           "%"});
    }
    std::cout << "fusion plan (" << graph.nodeCount() << " ops -> "
              << kernels.size() << " kernels):\n"
              << fusion.render() << "\n";

    // 2. Schedule against a 2-GPU trainer and print the co-run plan.
    const auto config =
        dlrm::makeDlrmConfig(data::DatasetPreset::CriteoKaggle, schema);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(schema, 2);
    core::OverlappingCapacityEstimator estimator(sim::dgxA100Spec(2),
                                                 config, sharding);
    const auto profile = estimator.profile(0);
    core::CoRunScheduler scheduler(planner);
    const auto schedule = scheduler.schedule(kernels, profile);
    std::cout << "co-running schedule for GPU 0:\n"
              << core::ScheduleCodegen::renderScheduleTable(schedule,
                                                            profile)
              << "\n";

    // 3. Generated PyTorch-style frontend (paper §4, step 3).
    std::cout << "generated frontend:\n"
              << core::ScheduleCodegen::renderPythonFrontend(
                     schedule, profile, /*gpu=*/0)
              << "\n";

    // 4. Train with the hand-built plan on 2 simulated GPUs. run()
    //    validates the graph against its schema first, so a node that
    //    reads a missing column or names a missing feature exits with
    //    the field named instead of running.
    preproc::PreprocPlan plan;
    plan.graph = graph;
    AsciiTable runs({"system", "iter latency", "vs ideal"});
    Seconds ideal = 0.0;
    for (const auto system : {core::System::Ideal, core::System::Rap,
                              core::System::SequentialGpu}) {
        const auto report = core::RunRequest(system)
                                .gpus(2)
                                .batchPerGpu(4096)
                                .run(plan);
        if (system == core::System::Ideal)
            ideal = report.avgIterationLatency;
        runs.addRow({report.system,
                     formatSeconds(report.avgIterationLatency),
                     AsciiTable::num(
                         ideal / report.avgIterationLatency * 100.0, 1) +
                         "%"});
    }
    std::cout << "training with the custom plan (2 GPUs):\n"
              << runs.render();
    return 0;
}
