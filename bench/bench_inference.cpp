/**
 * @file
 * Online inference study: the latency-vs-goodput frontier of serving
 * recommendation inference next to training on one 8-GPU node.
 *
 * A fixed stream of training jobs shares the node with a stream of
 * inference-serving jobs (open-loop, time-varying QPS, max-batch /
 * max-wait batching, a per-request latency SLO). The inference load is
 * swept by scaling each serving window's QPS, and every load point
 * runs under three placement policies:
 *
 *  - exclusive first-fit: inference partitions wait for whole GPUs;
 *  - exclusive best-fit: whole GPUs, healthiest first;
 *  - RAP envelope-shared: inference partitions co-locate onto training
 *    GPUs with headroom, gated by a projected-p99 SLO admission check
 *    (an SLO-violating placement is requeued and replanned like a
 *    degraded training job).
 *
 * The frontier compares SLO goodput (attained requests per second)
 * against tail latency and attainment at each load. Pass `--jobs N`
 * to fan reference simulations over a thread pool (output is
 * byte-identical for any N), `--tiny` for the CI determinism subset,
 * `--metrics <path>` for the scheduler metrics snapshot (one
 * `run=<arm>.load<x>` scope per point), and `--report <path>` for the
 * JSON artifact CI diffs across thread counts.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace rap;

/** One (load, policy) sweep point. */
struct Arm
{
    fleet::PlacementPolicy policy;
    std::string id;
};

std::string
loadTag(double load)
{
    // 0.5 -> "0.5", 2.0 -> "2" — stable, locale-free labels.
    std::string tag = AsciiTable::num(load, load < 1.0 ? 1 : 0);
    return tag;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(
        "bench_inference",
        "inference-serving latency-vs-goodput frontier");
    const std::string &report_path = args.addString(
        "--report", "", "per-point FleetReport JSON output path");
    args.parse(argc, argv);
    const bool tiny = args.tiny();
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    const std::vector<double> loads =
        tiny ? std::vector<double>{1.0, 2.0}
             : std::vector<double>{0.5, 1.0, 2.0, 4.0};
    const std::vector<Arm> arms = {
        {fleet::PlacementPolicy::ExclusiveFirstFit, "first_fit"},
        {fleet::PlacementPolicy::ExclusiveBestFit, "best_fit"},
        {fleet::PlacementPolicy::RapShared, "shared"},
    };

    std::cout << "=== Online inference next to training: "
              << "SLO goodput frontier on one 8x A100 node ===\n\n";

    Json points_json = Json::array();
    AsciiTable table({"load", "policy", "goodput req/s", "SLO attain",
                      "p50 lat", "p95 lat", "p99 lat", "makespan",
                      "mean JCT", "sims"});
    // reports[load][arm], filled in sweep order.
    std::vector<std::vector<fleet::FleetReport>> reports;
    for (double load : loads) {
        fleet::ArrivalTraceOptions trace_options;
        trace_options.tiny = tiny;
        trace_options.jobCount = tiny ? 3 : 8;
        trace_options.meanInterarrival = tiny ? 0.004 : 0.005;
        trace_options.serving.jobCount = tiny ? 2 : 6;
        trace_options.serving.meanInterarrival =
            tiny ? 0.006 : 0.008;
        trace_options.serving.qps =
            (tiny ? 3000.0 : 4000.0) * load;
        const auto trace = fleet::makeArrivalTrace(trace_options);

        Json point = Json::object();
        point.set("load", Json(load));
        Json arms_json = Json::object();
        reports.emplace_back();
        for (const auto &arm : arms) {
            auto report =
                fleet::FleetRequest(trace)
                    .policy(arm.policy)
                    .metrics(metrics,
                             arm.id + ".load" + loadTag(load))
                    .run(&pool);
            table.addRow({
                loadTag(load) + "x",
                fleet::policyName(arm.policy),
                AsciiTable::num(report.serveGoodputRps.value_or(0.0),
                                1),
                AsciiTable::num(report.serveAttainment.value_or(0.0),
                                4),
                formatSeconds(report.serveP50Latency.value_or(0.0)),
                formatSeconds(report.serveP95Latency.value_or(0.0)),
                formatSeconds(report.serveP99Latency.value_or(0.0)),
                formatSeconds(report.makespan),
                formatSeconds(report.meanJct),
                std::to_string(report.simulationsRun),
            });
            arms_json.set(arm.id, report.toJson());
            reports.back().push_back(std::move(report));
        }
        point.set("arms", std::move(arms_json));
        points_json.push(std::move(point));
    }
    std::cout << table.render() << "\n";

    // Verdict at the 1x load point: RAP-shared vs exclusive first-fit.
    std::size_t base = 0;
    while (base < loads.size() && loads[base] != 1.0)
        ++base;
    if (base < loads.size()) {
        const auto &exclusive = reports[base][0];
        const auto &shared = reports[base][2];
        const double goodput_ratio =
            exclusive.serveGoodputRps.value_or(0.0) > 0.0
                ? shared.serveGoodputRps.value_or(0.0) /
                      *exclusive.serveGoodputRps
                : 0.0;
        std::cout << "RAP-shared vs exclusive first-fit at 1x load: "
                  << "SLO goodput "
                  << AsciiTable::num(goodput_ratio, 2)
                  << "x, p99 attainment "
                  << AsciiTable::num(
                         shared.serveAttainment.value_or(0.0), 4)
                  << " vs "
                  << AsciiTable::num(
                         exclusive.serveAttainment.value_or(0.0), 4)
                  << ", makespan ratio "
                  << AsciiTable::num(
                         shared.makespan / exclusive.makespan, 2)
                  << "x\n";
    }

    if (!report_path.empty()) {
        Json artifact = Json::object();
        artifact.set("schema", Json("rap.serve.v1"));
        artifact.set("points", std::move(points_json));
        writeJsonFile(artifact, report_path);
    }
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
