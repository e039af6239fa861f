/**
 * @file
 * Offline planning phase wall-clock vs thread count.
 *
 * Times core::planOffline (capacity profiling + RAP mapping + per-GPU
 * fusion planning and co-run scheduling) on an 8-GPU config at 1, 2,
 * 4 and 8 planning threads, and separately times the embarrassingly
 * parallel per-GPU plan+schedule stage. The parallel runs produce
 * bit-identical plans to the serial run (asserted by
 * test_offline_parallel); this bench only reports the speedup.
 *
 * Speedups reflect the host the bench runs on: on a single-core
 * container every point reports ~1x.
 */

#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/rap.hpp"

namespace {

using namespace rap;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Best-of-N wall clock of one full planOffline call, in ms. */
double
timeOffline(const core::SystemConfig &config,
            const preproc::PreprocPlan &plan, int threads, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        ThreadPool pool(threads);
        const auto t0 = Clock::now();
        const auto offline = core::planOffline(config, plan, &pool);
        const double ms = msSince(t0);
        RAP_ASSERT(offline.schedules.size() ==
                       static_cast<std::size_t>(config.gpuCount),
                   "planOffline produced wrong schedule count");
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/**
 * Best-of-N wall clock of only the per-GPU plan+schedule stage (the
 * embarrassingly parallel part of the offline phase), in ms.
 */
double
timePlanSchedule(const preproc::PreprocPlan &plan, int gpus,
                 int threads, int reps)
{
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
    const auto mapping = mapper.map(core::MappingStrategy::DataLocality);
    core::CoRunScheduler scheduler(planner);

    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        ThreadPool pool(threads);
        const auto t0 = Clock::now();
        pool.parallelFor(static_cast<std::size_t>(gpus),
                         [&](std::size_t g) {
                             (void)scheduler.schedule(
                                 planner.plan(
                                     mapper.buildGpuGraph(
                                         mapping,
                                         static_cast<int>(g)),
                                     4096),
                                 profiles[g]);
                         });
        const double ms = msSince(t0);
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args("bench_micro_planner",
                          "offline planning phase vs thread count");
    args.parse(argc, argv);
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;
    std::cout << "=== Offline planning phase vs thread count "
                 "(8x A100, stressed plan) ===\n";
    std::cout << "host hardware threads: "
              << ThreadPool::hardwareThreads() << "\n";

    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 6656);
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 8;
    config.metrics = metrics;
    config.metricsScope = "planner";

    const int reps = 3;
    // Warm-up: fault in code and allocator state outside the timings.
    (void)timeOffline(config, plan, 1, 1);

    const double serial_full = timeOffline(config, plan, 1, reps);
    const double serial_stage = timePlanSchedule(plan, 8, 1, reps);

    AsciiTable table({"threads", "planOffline", "speedup",
                      "plan+schedule stage", "stage speedup"});
    for (int threads : {1, 2, 4, 8}) {
        const double full =
            threads == 1 ? serial_full
                         : timeOffline(config, plan, threads, reps);
        const double stage =
            threads == 1
                ? serial_stage
                : timePlanSchedule(plan, 8, threads, reps);
        table.addRow({std::to_string(threads),
                      AsciiTable::num(full, 1) + " ms",
                      AsciiTable::num(serial_full / full, 2) + "x",
                      AsciiTable::num(stage, 1) + " ms",
                      AsciiTable::num(serial_stage / stage, 2) + "x"});
    }
    std::cout << table.render()
              << "serial and threaded runs emit bit-identical plans "
                 "(see test_offline_parallel)\n";
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
