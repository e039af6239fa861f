/**
 * @file
 * Figure 12: adaptability of the input preprocessing graph mapping.
 *
 * A skewed preprocessing graph (the embedding tables on GPU 0 carry
 * far more preprocessing work) is mapped three ways:
 *  - DP: data-parallel, batch-by-batch (communication on the
 *    critical path);
 *  - DL: data-locality (zero communication, imbalanced);
 *  - RAP: the joint search weighing both.
 * Reported per strategy: the worst-GPU exposed preprocessing latency
 * and exposed communication latency from the cost model, plus the
 * measured end-to-end iteration overhead over the ideal trainer.
 * Paper: RAP reduces exposed latency ~4.3x vs DP and ~4.0x vs DL.
 *
 * Pass `--jobs N` to evaluate the three strategies concurrently; the
 * table renders in strategy order either way.
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/rap.hpp"

int
main(int argc, char **argv)
{
    using namespace rap;

    bench::ArgParser args("bench_fig12_mapping",
                          "Figure 12: graph-mapping adaptability");
    args.parse(argc, argv);
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    // Skewed graph: the four largest tables (owned by distinct GPUs,
    // the largest on GPU 0's shard) get heavy extra feature
    // generation.
    const auto plan = preproc::makeSkewedPlan(1, 4, 3000);
    const int gpus = 8;
    const auto cluster_spec = sim::dgxA100Spec(gpus);
    const auto config =
        dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema());
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), gpus);

    core::OverlappingCapacityEstimator estimator(cluster_spec, config,
                                                 sharding);
    const auto profiles = estimator.profileAll();
    core::HorizontalFusionPlanner planner(cluster_spec.gpu);
    core::GraphMapper mapper(plan, sharding, cluster_spec, 4096);
    core::CoRunningCostModel cost_model(cluster_spec);

    core::SystemConfig ideal_config;
    ideal_config.system = core::System::Ideal;
    ideal_config.gpuCount = gpus;
    ideal_config.metrics = metrics;
    ideal_config.metricsScope = "ideal";
    const auto ideal = core::RunRequest(ideal_config).run(plan);

    std::cout << "=== Figure 12: exposed latency under different "
                 "graph mappings (skewed plan, 8x A100) ===\n";
    AsciiTable table({"mapping", "worst exposed preproc",
                      "worst comm latency", "total comm",
                      "measured iter overhead"});

    struct StrategyResult {
        std::string name;
        Seconds exposed = 0.0;
        std::vector<std::string> row;
    };
    const std::vector<core::MappingStrategy> strategies = {
        core::MappingStrategy::DataParallel,
        core::MappingStrategy::DataLocality,
        core::MappingStrategy::Rap};
    const auto results = pool.parallelMap<StrategyResult>(
        strategies.size(), [&](std::size_t i) {
            const auto strategy = strategies[i];
            const auto mapping =
                strategy == core::MappingStrategy::Rap
                    ? mapper.mapRap(profiles, planner).mapping
                    : mapper.map(strategy);

            core::CoRunScheduler scheduler(planner);
            Seconds worst_exposed = 0.0;
            Seconds worst_comm = 0.0;
            Bytes total_comm = 0.0;
            for (int g = 0; g < gpus; ++g) {
                const auto schedule = scheduler.schedule(
                    planner.plan(mapper.buildGpuGraph(mapping, g),
                                 4096),
                    profiles[static_cast<std::size_t>(g)]);
                worst_exposed = std::max(worst_exposed,
                                         schedule.estimatedExposed);
                worst_comm = std::max(
                    worst_comm,
                    cost_model.commLatency(
                        mapping.commOutBytes[
                            static_cast<std::size_t>(g)]));
                total_comm +=
                    mapping.commOutBytes[static_cast<std::size_t>(g)];
            }

            // Measured end-to-end run under the forced mapping.
            core::SystemConfig run_config;
            run_config.system = core::System::Rap;
            run_config.gpuCount = gpus;
            run_config.forcedMapping = strategy;
            run_config.metrics = metrics;
            run_config.metricsScope =
                core::mappingStrategyName(strategy);
            const auto report = core::RunRequest(run_config).run(plan);
            const Seconds overhead =
                report.avgIterationLatency - ideal.avgIterationLatency;

            StrategyResult result;
            result.name = core::mappingStrategyName(strategy);
            result.exposed = worst_exposed + worst_comm;
            result.row = {core::mappingStrategyName(strategy),
                          formatSeconds(worst_exposed),
                          formatSeconds(worst_comm),
                          formatBytes(total_comm),
                          formatSeconds(std::max(overhead, 0.0))};
            return result;
        });

    Seconds rap_exposed = 0.0;
    std::map<std::string, Seconds> exposed_by_name;
    for (std::size_t i = 0; i < results.size(); ++i) {
        exposed_by_name[results[i].name] = results[i].exposed;
        if (strategies[i] == core::MappingStrategy::Rap)
            rap_exposed = results[i].exposed;
        table.addRow(results[i].row);
    }
    std::cout << table.render();

    if (rap_exposed > 0.0) {
        std::cout << "exposed-latency reduction: DP/RAP = "
                  << AsciiTable::num(exposed_by_name["DP"] /
                                         rap_exposed, 1)
                  << "x (paper 4.3x), DL/RAP = "
                  << AsciiTable::num(exposed_by_name["DL"] /
                                         rap_exposed, 1)
                  << "x (paper 4.0x)\n";
    }
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
