/**
 * @file
 * Fleet study: exclusive-GPU vs envelope-shared placement for a
 * multi-tenant stream of RAP training jobs on one 8-GPU node.
 *
 * One seeded arrival trace of heterogeneous jobs (mixed GPU counts,
 * preprocessing plans, batch sizes) runs under each placement policy:
 *
 *  - exclusive first-fit: whole GPUs only, lowest ordinals first;
 *  - exclusive best-fit: whole GPUs only, healthiest first;
 *  - RAP envelope-shared: small jobs co-run on GPUs whose capacity
 *    envelopes have headroom, each planning (core::planOffline) and
 *    simulating against its granted slice;
 *  - RAP shared + degrade: the shared policy with a mid-run SM
 *    degradation on GPU 0, exercising requeue-and-replan.
 *
 * Pass `--jobs N` to fan the per-variant reference simulations over a
 * thread pool (output is byte-identical for any N), `--tiny` for the
 * CI determinism subset, and `--trace <prefix>` to dump per-segment
 * Chrome traces for Perfetto. `--metrics <path>` writes the
 * scheduler-level metrics snapshot (admission-queue depth, placement
 * outcomes, memo hit rates; one `run=<policy arm>` scope per arm) and
 * `--report <path>` the full FleetReport JSON artifact the CI
 * determinism job diffs across thread counts.
 *
 * Catalog mode (`--catalog <dir>`) switches to a single shared-policy
 * arm backed by the durable WAL catalog, for the resume gate:
 *
 *   bench_fleet --tiny --catalog runs/cat --report ref.json
 *   bench_fleet --tiny --catalog runs/cat2 --stop-after 7   # SIGKILL
 *   bench_fleet --tiny --catalog runs/cat2 --resume --report res.json
 *   diff ref.json res.json                                  # empty
 *
 * `--stop-after N` raises SIGKILL after the Nth committed event frame
 * (exit code 137 — the deterministic power cut); `--resume` rebuilds
 * the run from the catalog's genesis record, byte-verifies the
 * re-executed frames against the recovered WAL tail, and finishes the
 * run. `--fsync` turns on fsync-per-commit, `--compact-every N`
 * periodic snapshot compaction. `--trace <prefix>` traces a fresh
 * catalog run; the genesis record persists the prefix, so a resumed
 * run traces under it and `--resume` refuses `--trace`.
 */

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "ctrl/catalog.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace rap;

fleet::ArrivalTraceOptions
traceOptions(bool tiny)
{
    fleet::ArrivalTraceOptions options;
    options.tiny = tiny;
    options.jobCount = tiny ? 8 : 14;
    options.meanInterarrival = tiny ? 0.004 : 0.005;
    return options;
}

/** Single-arm catalog-backed run: initial, killed, or resumed. */
int
runCatalogMode(const bench::ArgParser &args,
               const std::string &catalog_dir, bool resume,
               int stop_after, bool fsync, int compact_every,
               const std::string &trace_prefix,
               const std::string &report_path, ThreadPool &pool,
               obs::MetricRegistry &registry)
{
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;
    if (resume && !trace_prefix.empty()) {
        RAP_FATAL("bench_fleet: --trace cannot be combined with "
                  "--resume; the catalog's genesis record fixes the "
                  "trace prefix");
    }
    ctrl::CatalogOptions catalog_options;
    catalog_options.dir = catalog_dir;
    catalog_options.fsyncOnCommit = fsync;
    catalog_options.compactEvery = compact_every;
    catalog_options.metrics = metrics;
    const auto catalog = ctrl::Catalog::open(catalog_options);
    fleet::FleetReport report;
    if (resume) {
        report = fleet::resumeFleet(*catalog, &pool);
        std::cout << "resumed catalog " << catalog_dir << "\n";
    } else {
        const auto trace =
            fleet::makeArrivalTrace(traceOptions(args.tiny()));
        fleet::FleetRequest request(trace);
        request.policy(fleet::PlacementPolicy::RapShared)
            .catalog(catalog.get())
            .tracePrefix(trace_prefix)
            .metrics(metrics);
        if (stop_after > 0) {
            // The process dies inside run() — SIGKILL, exit 137 —
            // leaving the catalog's durable prefix behind.
            request.stopAfterEvents(stop_after);
        }
        report = request.run(&pool);
    }
    std::cout << report.renderSummary() << "\n";
    if (!report_path.empty())
        writeJsonFile(report.toJson(), report_path);
    bench::maybeWriteMetrics(args, registry);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args("bench_fleet",
                          "multi-tenant placement-policy study");
    const std::string &report_path = args.addString(
        "--report", "", "FleetReport JSON output path (all arms)");
    const std::string &catalog_dir = args.addString(
        "--catalog", "",
        "durable catalog directory (single shared-policy arm)");
    const bool &resume = args.addFlag(
        "--resume", "resume the run persisted in --catalog");
    const int &stop_after = args.addInt(
        "--stop-after", 0,
        "SIGKILL after N committed event frames (needs --catalog)");
    const bool &fsync =
        args.addFlag("--fsync", "fsync the catalog WAL per commit");
    const int &compact_every = args.addInt(
        "--compact-every", 0,
        "compact the catalog snapshot every N commits (0 = never)");
    const std::string &trace_prefix = args.addString(
        "--trace", "", "Chrome-trace JSON output prefix (shared arm)");
    args.parse(argc, argv);
    const bool tiny = args.tiny();
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    if (catalog_dir.empty()) {
        // The catalog flags act on nothing without a catalog; ignoring
        // them would run the policy sweep the caller did not ask for.
        const std::pair<bool, const char *> catalog_only[] = {
            {resume, "--resume"},
            {stop_after != 0, "--stop-after"},
            {fsync, "--fsync"},
            {compact_every != 0, "--compact-every"}};
        for (const auto &[set, flag] : catalog_only) {
            if (set)
                RAP_FATAL("bench_fleet: ", flag, " needs --catalog");
        }
    } else {
        return runCatalogMode(args, catalog_dir, resume, stop_after,
                              fsync, compact_every, trace_prefix,
                              report_path, pool, registry);
    }

    const auto trace = fleet::makeArrivalTrace(traceOptions(tiny));

    std::cout << "=== Fleet scheduling: " << trace.size()
              << " jobs arriving on one 8x A100 node ===\n\n";

    auto makeRequest = [&](fleet::PlacementPolicy policy,
                           const std::string &scope) {
        fleet::FleetRequest request(trace);
        request.policy(policy).metrics(metrics, scope);
        if (!trace_prefix.empty() && scope == "shared")
            request.tracePrefix(trace_prefix);
        return request;
    };

    const auto exclusive =
        makeRequest(fleet::PlacementPolicy::ExclusiveFirstFit,
                    "first_fit")
            .run(&pool);
    const auto best_fit =
        makeRequest(fleet::PlacementPolicy::ExclusiveBestFit,
                    "best_fit")
            .run(&pool);
    const auto shared =
        makeRequest(fleet::PlacementPolicy::RapShared, "shared")
            .run(&pool);

    // Degradation arm: GPU 0 loses 30% SM capacity a third of the way
    // through the exclusive makespan; resident jobs requeue and replan
    // against the shrunken envelope.
    const auto degraded =
        makeRequest(fleet::PlacementPolicy::RapShared,
                    "shared_degrade")
            .addFault(sim::FaultEvent::smDegrade(
                0, exclusive.makespan / 3.0, 0.7))
            .run(&pool);

    for (const auto *report :
         {&exclusive, &best_fit, &shared, &degraded}) {
        std::cout << report->renderSummary() << "\n";
    }

    std::cout << "--- per-job outcomes, "
              << fleet::policyName(shared.policy) << " ---\n"
              << shared.renderJobs() << "\n";

    AsciiTable table({"policy", "makespan", "mean JCT", "p95 JCT",
                      "mean queueing", "SM util", "occupancy",
                      "requeues", "sims"});
    for (const auto *report :
         {&exclusive, &best_fit, &shared, &degraded}) {
        table.addRow({
            fleet::policyName(report->policy) +
                (report == &degraded ? " + degrade" : ""),
            formatSeconds(report->makespan),
            formatSeconds(report->meanJct),
            formatSeconds(report->p95Jct),
            formatSeconds(report->meanQueueingDelay),
            AsciiTable::num(report->clusterSmUtil, 4),
            AsciiTable::num(report->gpuOccupancy, 4),
            std::to_string(report->requeues),
            std::to_string(report->simulationsRun),
        });
    }
    std::cout << table.render() << "\n";

    std::cout << "envelope-shared vs exclusive first-fit: mean JCT "
              << AsciiTable::num(exclusive.meanJct / shared.meanJct, 2)
              << "x better, cluster SM util "
              << AsciiTable::num(
                     shared.clusterSmUtil / exclusive.clusterSmUtil, 2)
              << "x higher, mean queueing "
              << AsciiTable::num(exclusive.meanQueueingDelay /
                                     shared.meanQueueingDelay,
                                 2)
              << "x lower, makespan ratio "
              << AsciiTable::num(shared.makespan / exclusive.makespan,
                                 2)
              << "x\n";

    if (!report_path.empty()) {
        Json artifact = Json::object();
        artifact.set("schema", Json("rap.fleet.v1"));
        Json arms = Json::object();
        arms.set("first_fit", exclusive.toJson());
        arms.set("best_fit", best_fit.toJson());
        arms.set("shared", shared.toJson());
        arms.set("shared_degrade", degraded.toJson());
        artifact.set("arms", std::move(arms));
        writeJsonFile(artifact, report_path);
    }
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
