/**
 * @file
 * Export a Chrome-tracing timeline of RAP's co-running execution.
 *
 * Runs two iterations' worth of online training with RAP and with the
 * MPS baseline on a simulated 4-GPU node and writes
 * chrome://tracing-compatible JSON files showing every training and
 * preprocessing kernel on its stream, with SM/DRAM counter tracks.
 * Open the output in chrome://tracing or https://ui.perfetto.dev.
 *
 * Usage: trace_visualizer [output_prefix=rap_trace]
 */

#include <iostream>

#include "core/rap.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace rap;

/**
 * Rebuild the interesting part of the pipeline by hand so we keep the
 * Cluster alive for export (a RunRequest run owns and drops its cluster).
 */
void
exportCoRunTimeline(const std::string &path, bool fused)
{
    const auto plan = preproc::makePlan(2);
    const int gpus = 4;
    const auto cluster_spec = sim::dgxA100Spec(gpus);
    const auto config =
        dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema());
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), gpus);

    core::OverlappingCapacityEstimator estimator(cluster_spec, config,
                                                 sharding);
    const auto profiles = estimator.profileAll();
    core::FusionOptions fusion_options;
    fusion_options.enableFusion = fused;
    core::HorizontalFusionPlanner planner(cluster_spec.gpu, nullptr,
                                          fusion_options);
    core::GraphMapper mapper(plan, sharding, cluster_spec, 4096);
    const auto mapping = mapper.map(core::MappingStrategy::DataLocality);
    core::CoRunScheduler scheduler(planner);

    sim::Cluster cluster(cluster_spec);
    dlrm::TrainingDriver driver(cluster, config, sharding);
    driver.pushIterations(3);

    // Co-run each GPU's schedule with iteration 1 (iteration 0 warms
    // the pipeline, iteration 2 shows the tail).
    for (int g = 0; g < gpus; ++g) {
        const auto schedule = scheduler.schedule(
            planner.plan(mapper.buildGpuGraph(mapping, g), 4096),
            profiles[static_cast<std::size_t>(g)]);
        auto &pre = cluster.device(g).newStream(
            "gpu" + std::to_string(g) + ".preproc", 0, 1);
        for (const auto &sk : schedule.kernels) {
            pre.pushWait(driver.opStart(g, 1, sk.opIndex));
            pre.pushKernel(sk.kernel.kernel);
        }
    }
    cluster.run();

    sim::writeChromeTrace(cluster, path);
    std::cout << "wrote " << path << " ("
              << cluster.device(0).trace().kernels().size()
              << " kernels on GPU 0)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string prefix = argc > 1 ? argv[1] : "rap_trace";
    std::cout << "exporting co-running timelines (Plan 2, 4x A100)...\n";
    exportCoRunTimeline(prefix + "_fused.json", /*fused=*/true);
    exportCoRunTimeline(prefix + "_unfused.json", /*fused=*/false);
    std::cout << "open the files in chrome://tracing or "
                 "https://ui.perfetto.dev\n";
    return 0;
}
