/**
 * @file
 * Ablations over RAP's design choices (DESIGN.md §4):
 *
 *  A1  inter-batch workload interleaving on/off (§6.3);
 *  A2  trained ML latency predictor vs the oracle cost model (§5.2);
 *  A3  hybrid GPU+CPU preprocessing vs plain RAP on a workload that
 *      exceeds the GPUs' overlapping capacity (§10);
 *  A4  MILP local search vs plain ASAP level assignment (§6.2).
 *
 * Pass `--jobs N` to evaluate the sweep points of A1-A4 concurrently;
 * tables render in point order either way, so the output is identical.
 * A5 times the offline phase itself and always runs serially.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/rap.hpp"

namespace {

using namespace rap;

using Row = std::vector<std::string>;

void
ablationInterleaving(ThreadPool &pool, bool tiny,
                     obs::MetricRegistry *metrics)
{
    std::cout << "--- A1: inter-batch workload interleaving (8x A100) "
                 "---\n";
    AsciiTable table({"workload", "no interleaving", "interleaving",
                      "gain"});
    const std::vector<int> points =
        tiny ? std::vector<int>{0, 6656}
             : std::vector<int>{0, 3328, 6656, 13312, 26624};
    const auto rows = pool.parallelMap<Row>(
        points.size(), [&](std::size_t i) {
            const int stress = points[i];
            auto plan = preproc::makePlan(1);
            if (stress > 0)
                preproc::addNgramStress(plan, stress);
            core::SystemConfig config;
            config.system = core::System::Rap;
            config.gpuCount = 8;
            config.metrics = metrics;
            config.interleave = false;
            config.metricsScope =
                "a1.s" + std::to_string(stress) + ".off";
            const auto off = core::RunRequest(config).run(plan);
            config.interleave = true;
            config.metricsScope =
                "a1.s" + std::to_string(stress) + ".on";
            const auto on = core::RunRequest(config).run(plan);
            return Row{"Plan 1 + " + std::to_string(stress) + " NGram",
                       formatSeconds(off.avgIterationLatency),
                       formatSeconds(on.avgIterationLatency),
                       AsciiTable::num((off.avgIterationLatency /
                                            on.avgIterationLatency -
                                        1.0) * 100.0, 2) + "%"};
        });
    for (const auto &row : rows)
        table.addRow(row);
    std::cout << table.render() << "\n";
}

void
ablationPredictor(ThreadPool &pool, obs::MetricRegistry *metrics)
{
    std::cout << "--- A2: trained latency predictor vs oracle cost "
                 "model ---\n";
    core::PredictorTrainOptions options;
    options.totalSamples = 5000;
    const auto predictor =
        core::LatencyPredictor::trainOffline(sim::a100Spec(), options);

    AsciiTable table({"plan", "oracle throughput",
                      "predictor throughput", "delta"});
    const std::vector<int> points = {0, 2, 3};
    const auto rows = pool.parallelMap<Row>(
        points.size(), [&](std::size_t i) {
            const int plan_id = points[i];
            const auto plan = preproc::makePlan(plan_id);
            core::SystemConfig config;
            config.system = core::System::Rap;
            config.gpuCount = 8;
            config.metrics = metrics;
            config.metricsScope =
                "a2.p" + std::to_string(plan_id) + ".oracle";
            const auto oracle = core::RunRequest(config).run(plan);
            config.predictor = &predictor;
            config.metricsScope =
                "a2.p" + std::to_string(plan_id) + ".ml";
            const auto predicted = core::RunRequest(config).run(plan);
            return Row{"Plan " + std::to_string(plan_id),
                       formatRate(oracle.throughput),
                       formatRate(predicted.throughput),
                       AsciiTable::num((predicted.throughput /
                                            oracle.throughput -
                                        1.0) * 100.0, 2) + "%"};
        });
    for (const auto &row : rows)
        table.addRow(row);
    std::cout << table.render()
              << "the trained predictor is accurate enough to replace "
                 "profiling (§5.2)\n\n";
}

void
ablationHybrid(ThreadPool &pool, bool tiny,
               obs::MetricRegistry *metrics)
{
    std::cout << "--- A3: hybrid GPU+CPU preprocessing on an "
                 "overloaded workload ---\n";
    AsciiTable table({"extra NGram ops", "RAP exposed",
                      "hybrid exposed", "RAP tput", "hybrid tput"});
    const std::vector<int> points = tiny
                                        ? std::vector<int>{6656}
                                        : std::vector<int>{3328, 6656,
                                                           13312};
    const auto rows = pool.parallelMap<Row>(
        points.size(), [&](std::size_t i) {
            const int stress = points[i];
            auto plan = preproc::makePlan(1);
            preproc::addNgramStress(plan, stress);
            core::SystemConfig config;
            config.system = core::System::Rap;
            config.gpuCount = 8;
            config.metrics = metrics;
            config.metricsScope =
                "a3.s" + std::to_string(stress) + ".rap";
            const auto rap = core::RunRequest(config).run(plan);
            config.system = core::System::HybridRap;
            config.metricsScope =
                "a3.s" + std::to_string(stress) + ".hybrid";
            const auto hybrid = core::RunRequest(config).run(plan);
            return Row{std::to_string(stress),
                       formatSeconds(rap.predictedExposed),
                       formatSeconds(hybrid.predictedExposed),
                       formatRate(rap.throughput),
                       formatRate(hybrid.throughput)};
        });
    for (const auto &row : rows)
        table.addRow(row);
    std::cout << table.render()
              << "the CPU segment absorbs part of the overflow; the "
                 "host's throughput bounds the benefit (§10)\n\n";
}

void
ablationSolver(ThreadPool &pool, bool tiny)
{
    std::cout << "--- A4: MILP local search vs plain ASAP levels ---\n";
    AsciiTable table({"plan", "ASAP-only objective",
                      "local-search objective", "fused kernels (LS)"});
    const std::vector<int> points =
        tiny ? std::vector<int>{0, 2} : std::vector<int>{0, 2, 3};
    const auto rows = pool.parallelMap<Row>(
        points.size(), [&](std::size_t i) {
            const int plan_id = points[i];
            const auto plan = preproc::makePlan(plan_id);
            const auto problem =
                core::HorizontalFusionPlanner::toProblem(plan.graph);

            milp::SolverOptions no_search;
            no_search.localSearchRounds = 0;
            const auto asap_only =
                milp::FusionSolver(no_search).solveHeuristic(problem);
            const auto searched =
                milp::FusionSolver().solveHeuristic(problem);

            return Row{"Plan " + std::to_string(plan_id),
                       AsciiTable::num(asap_only.objective, 0),
                       AsciiTable::num(searched.objective, 0),
                       std::to_string(
                           searched.groups(problem).size())};
        });
    for (const auto &row : rows)
        table.addRow(row);
    std::cout << table.render()
              << "higher objective = higher fusion degree (Eq. 3-4)\n";
}

void
ablationRegenerationCost()
{
    std::cout << "--- A5: plan-regeneration cost (host wall clock; "
                 "paper §10 claims minutes on real hardware) ---\n";
    AsciiTable table({"plan", "capacity profiling", "fusion + mapping "
                      "+ scheduling", "total"});
    for (int plan_id : {0, 2, 3}) {
        const auto plan = preproc::makePlan(plan_id);
        const auto cluster_spec = sim::dgxA100Spec(8);
        const auto config =
            dlrm::makeDlrmConfig(plan.spec.dataset, plan.graph.schema());
        const auto sharding =
            dlrm::EmbeddingSharding::balanced(plan.graph.schema(), 8);

        const auto t0 = std::chrono::steady_clock::now();
        core::OverlappingCapacityEstimator estimator(cluster_spec,
                                                     config, sharding);
        const auto profiles = estimator.profileAll();
        const auto t1 = std::chrono::steady_clock::now();

        core::HorizontalFusionPlanner planner(cluster_spec.gpu);
        core::GraphMapper mapper(plan, sharding, cluster_spec, 4096);
        // The search's pricings are each GPU's fusion plan and
        // schedule, as in planOffline.
        (void)mapper.mapRap(profiles, planner);
        const auto t2 = std::chrono::steady_clock::now();

        auto ms = [](auto a, auto b) {
            return std::chrono::duration<double, std::milli>(b - a)
                .count();
        };
        table.addRow({"Plan " + std::to_string(plan_id),
                      AsciiTable::num(ms(t0, t1), 1) + " ms",
                      AsciiTable::num(ms(t1, t2), 1) + " ms",
                      AsciiTable::num(ms(t0, t2), 1) + " ms"});
    }
    std::cout << table.render()
              << "cheap enough to re-run whenever the input "
                 "distribution shifts (§10)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args("bench_ablations",
                          "RAP design-choice ablations A1-A5");
    args.parse(argc, argv);
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;
    // --tiny: the CI determinism smoke mode. Few sweep points, and the
    // stages whose output is inherently non-reproducible (A2 trains on
    // sampled co-runs, A5 prints wall-clock times) are skipped so the
    // tables diff byte-identically across --jobs counts.
    const bool tiny = args.tiny();
    std::cout << "=== RAP design-choice ablations ===\n\n";
    ablationInterleaving(pool, tiny, metrics);
    if (tiny)
        std::cout << "--- A2: skipped in --tiny mode ---\n\n";
    else
        ablationPredictor(pool, metrics);
    ablationHybrid(pool, tiny, metrics);
    ablationSolver(pool, tiny);
    std::cout << "\n";
    if (tiny)
        std::cout << "--- A5: skipped in --tiny mode (wall-clock "
                     "timings are not deterministic) ---\n";
    else
        ablationRegenerationCost();
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
