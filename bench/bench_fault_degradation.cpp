/**
 * @file
 * Fault-degradation study (DESIGN.md §7): end-to-end makespan of a
 * RAP run when a GPU degrades mid-run, with and without the online
 * drift monitor's incremental replanning.
 *
 * Three arms per scenario:
 *  - healthy: no fault injected (reference makespan);
 *  - stale plan: fault injected, replanning disabled — the offline
 *    co-run schedule keeps over-subscribing the degraded envelopes;
 *  - replanned: fault injected, drift monitor re-runs the co-run
 *    scheduler on the degraded capacity profiles and splices the new
 *    schedule in at the next batch boundary.
 *
 * "recovered" is the share of the fault-induced makespan loss the
 * replan wins back. Pass `--jobs N` to evaluate scenarios
 * concurrently; the table is identical for any job count.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/rap.hpp"
#include "sim/fault.hpp"

namespace {

using namespace rap;

using Row = std::vector<std::string>;

core::SystemConfig
baseConfig()
{
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = 8;
    config.iterations = 72;
    config.warmup = 3;
    return config;
}

struct Scenario
{
    std::string name;
    sim::FaultSpec faults;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args("bench_fault_degradation",
                          "fault injection + online replanning study");
    int &mtbf_ms = args.addInt(
        "--mtbf", 0,
        "append a seeded fail-stop crash scenario with this mean "
        "time between crashes, simulated ms (0 = off)",
        0);
    int &fault_seed =
        args.addInt("--fault-seed", 1, "crash-trace RNG seed");
    int &crash_at_ms = args.addInt(
        "--crash-at", -1,
        "override the fault-injection time, simulated ms "
        "(-1 = healthy makespan / 3)",
        -1);
    args.parse(argc, argv);
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;
    std::cout << "=== Fault injection + online replanning (8x A100) "
                 "===\n\n";

    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 13312);

    // Healthy reference run; its timeline calibrates the fault clock.
    auto healthy_config = baseConfig();
    healthy_config.metrics = metrics;
    healthy_config.metricsScope = "healthy";
    const auto healthy = core::RunRequest(healthy_config).run(plan);
    const Seconds iter_latency = healthy.avgIterationLatency;
    const Seconds fault_at =
        crash_at_ms >= 0 ? crash_at_ms / 1000.0
                         : healthy.makespan / 3.0;
    std::cout << "healthy makespan " << formatSeconds(healthy.makespan)
              << " (" << formatSeconds(iter_latency)
              << "/iteration); faults injected at "
              << formatSeconds(fault_at) << "\n\n";

    std::vector<Scenario> scenarios;
    {
        Scenario s{"SM capacity 0.7x on gpu0", {}};
        s.faults.events.push_back(
            sim::FaultEvent::smDegrade(0, fault_at, 0.7));
        scenarios.push_back(std::move(s));
    }
    {
        Scenario s{"HBM bandwidth 0.5x on gpu0", {}};
        s.faults.events.push_back(
            sim::FaultEvent::hbmDegrade(0, fault_at, 0.5));
        scenarios.push_back(std::move(s));
    }
    {
        Scenario s{"NVLink fabric 0.5x", {}};
        s.faults.events.push_back(sim::FaultEvent::linkSlow(
            -1, sim::FaultLink::Fabric, fault_at, 0.5));
        scenarios.push_back(std::move(s));
    }
    {
        Scenario s{"transient launch faults on gpu0", {}};
        s.faults.events.push_back(sim::FaultEvent::transientKernel(
            0, fault_at, fault_at + 10.0 * iter_latency, 0.3));
        scenarios.push_back(std::move(s));
    }
    if (mtbf_ms > 0) {
        // Fail-stop crashes ride the analytic recovery composer, so
        // both arms of this row report composed completions; stale
        // vs replanned stays a like-for-like comparison.
        Scenario s{"seeded fail-stop crashes", {}};
        s.faults.events = sim::makeCrashTrace(
            mtbf_ms / 1000.0, static_cast<std::uint64_t>(fault_seed),
            2.0 * healthy.makespan, healthy_config.gpuCount);
        scenarios.push_back(std::move(s));
    }

    AsciiTable table({"scenario", "healthy", "fault, stale plan",
                      "fault, replanned", "recovered", "replans",
                      "retries"});
    const auto rows = pool.parallelMap<Row>(
        scenarios.size(), [&](std::size_t i) {
            const auto &scenario = scenarios[i];
            auto config = baseConfig();
            config.faults = scenario.faults;
            config.metrics = metrics;
            config.replanOnDrift = false;
            std::string scope = "f";
            scope += std::to_string(i);
            config.metricsScope = scope + ".stale";
            const auto stale = core::RunRequest(config).run(plan);
            config.replanOnDrift = true;
            config.metricsScope = scope + ".replanned";
            const auto replanned = core::RunRequest(config).run(plan);

            const Seconds lost = stale.makespan - healthy.makespan;
            const Seconds won = stale.makespan - replanned.makespan;
            const std::string recovered =
                lost > 1e-9
                    ? AsciiTable::num(100.0 * won / lost, 1) + "%"
                    : "-";
            return Row{scenario.name, formatSeconds(healthy.makespan),
                       formatSeconds(stale.makespan),
                       formatSeconds(replanned.makespan), recovered,
                       std::to_string(replanned.replans),
                       std::to_string(replanned.kernelRetries)};
        });
    for (const auto &row : rows)
        table.addRow(row);
    std::cout << table.render()
              << "replanning re-shards preprocessing into the degraded "
                 "GPU's shrunken overlap windows, so inputs stop "
                 "gating the healthy GPUs\n";
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
