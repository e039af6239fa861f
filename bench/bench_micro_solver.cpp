/**
 * @file
 * Microbenchmarks (google-benchmark) of the plan-search machinery:
 * MILP fusion solving, co-run scheduling and the simulator engine.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "core/rap.hpp"

namespace {

using namespace rap;

void
BM_FusionSolveHeuristic(benchmark::State &state)
{
    const auto plan =
        preproc::makePlan(static_cast<int>(state.range(0)));
    const auto problem =
        core::HorizontalFusionPlanner::toProblem(plan.graph);
    milp::FusionSolver solver;
    for (auto _ : state) {
        auto solution = solver.solveHeuristic(problem);
        benchmark::DoNotOptimize(solution.objective);
    }
    state.SetLabel(std::to_string(plan.graph.nodeCount()) + " ops");
}

void
BM_FusionSolveExact(benchmark::State &state)
{
    // Small parallel-chain instance within the exact solver's reach.
    milp::FusionProblem problem;
    const int chains = static_cast<int>(state.range(0));
    for (int c = 0; c < chains; ++c) {
        for (int i = 0; i < 3; ++i) {
            problem.type.push_back(i);
            if (i > 0)
                problem.deps.emplace_back(c * 3 + i, c * 3 + i - 1);
        }
    }
    milp::FusionSolver solver;
    for (auto _ : state) {
        auto solution = solver.solveExact(problem);
        benchmark::DoNotOptimize(solution.objective);
    }
}

void
BM_FusionPlanEndToEnd(benchmark::State &state)
{
    const auto plan =
        preproc::makePlan(static_cast<int>(state.range(0)));
    core::HorizontalFusionPlanner planner(sim::a100Spec());
    for (auto _ : state) {
        auto kernels = planner.plan(plan.graph, 4096);
        benchmark::DoNotOptimize(kernels.size());
    }
}

void
BM_CoRunSchedule(benchmark::State &state)
{
    const auto plan =
        preproc::makePlan(static_cast<int>(state.range(0)));
    const auto cluster_spec = sim::dgxA100Spec(2);
    const auto config =
        dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema());
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 2);
    core::OverlappingCapacityEstimator estimator(cluster_spec, config,
                                                 sharding);
    const auto profile = estimator.profile(0);
    core::HorizontalFusionPlanner planner(cluster_spec.gpu);
    const auto kernels = planner.plan(plan.graph, 4096);
    core::CoRunScheduler scheduler(planner);
    for (auto _ : state) {
        auto schedule = scheduler.schedule(kernels, profile);
        benchmark::DoNotOptimize(schedule.kernelCount());
    }
}

void
BM_SimulatedTrainingIteration(benchmark::State &state)
{
    const auto schema =
        data::makePresetSchema(data::DatasetPreset::CriteoTerabyte);
    const auto config = dlrm::makeDlrmConfig(
        data::DatasetPreset::CriteoTerabyte, schema);
    const int gpus = static_cast<int>(state.range(0));
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(schema, gpus);
    for (auto _ : state) {
        sim::Cluster cluster(sim::dgxA100Spec(gpus));
        dlrm::TrainingDriver driver(cluster, config, sharding);
        driver.pushIterations(4);
        cluster.run();
        benchmark::DoNotOptimize(driver.avgIterationLatency());
    }
}

} // namespace

BENCHMARK(BM_FusionSolveHeuristic)->Arg(0)->Arg(2)->Arg(3);
BENCHMARK(BM_FusionSolveExact)->Arg(3)->Arg(5);
BENCHMARK(BM_FusionPlanEndToEnd)->Arg(0)->Arg(2);
BENCHMARK(BM_CoRunSchedule)->Arg(0)->Arg(2);
BENCHMARK(BM_SimulatedTrainingIteration)->Arg(2)->Arg(8);

int
main(int argc, char **argv)
{
    rap::bench::ArgParser args(
        "bench_micro_solver",
        "fusion-solver and scheduler microbenchmarks (unrecognised flags pass through to google-benchmark)");
    args.allowUnknown();
    args.parse(argc, argv);
    auto gbench_argv = args.remainingArgv();
    int gbench_argc = static_cast<int>(gbench_argv.size());
    benchmark::Initialize(&gbench_argc, gbench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                               gbench_argv.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    // google-benchmark owns the timing output; the snapshot carries
    // only the suite inventory so --metrics still emits valid JSON.
    rap::obs::MetricRegistry registry;
    rap::bench::maybeWriteMetrics(args, registry);
    return 0;
}
