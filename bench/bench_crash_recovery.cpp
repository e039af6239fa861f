/**
 * @file
 * Crash-recovery study (DESIGN.md §10): end-to-end job completion
 * under a seeded fail-stop crash trace, comparing checkpoint
 * policies:
 *
 *  - no checkpoint: every crash restarts the job from iteration zero;
 *  - fixed q=1: the naive dual — a checkpoint after every iteration,
 *    so almost nothing is ever lost but the drain cost is paid
 *    continuously;
 *  - Young-Daly: the interval tau = sqrt(2 * C * MTBF) computed from
 *    the *measured* per-checkpoint drain cost C.
 *
 * The DES measures the checkpoint-free iteration interval and the
 * drain cost (including PCIe contention with input staging); the
 * analytic composer extrapolates checkpoints, crashes, and restores
 * over a production-length job, because realistic MTBFs (tens of
 * simulated minutes) dwarf the simulated steady-state horizon
 * (core/checkpoint.hpp). All three arms replay the identical crash
 * trace, so the comparison isolates the policy.
 *
 * Pass `--jobs N` to evaluate arms concurrently; the table, the
 * metrics snapshot, and the `--report` JSON are identical for any job
 * count.
 */

#include <fstream>
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

struct Arm
{
    std::string key;   // stable token for metrics scope / report JSON
    std::string label; // table row
    core::CheckpointPolicy checkpoint;
};

struct ArmResult
{
    core::RunReport report;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args("bench_crash_recovery",
                          "checkpoint/restore policy study under "
                          "seeded fail-stop crashes");
    int &mtbf_ms = args.addInt(
        "--mtbf", 0,
        "mean time between fail-stop crashes, simulated ms "
        "(0 = 300000, or 60000 with --tiny)",
        0);
    int &fault_seed =
        args.addInt("--fault-seed", 1, "crash-trace RNG seed");
    int &crash_at_ms = args.addInt(
        "--crash-at", -1,
        "replace the seeded trace with one crash at this simulated "
        "ms (-1 = use the seeded trace)",
        -1);
    std::string &report_path = args.addString(
        "--report", "", "arm-report JSON output path (CI diffs this)");
    args.parse(argc, argv);
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;
    const bool tiny = args.tiny();

    // Default MTBF is ~1/3 of the no-checkpoint completion so the
    // seeded trace actually interrupts the job several times; a job
    // that outlives its first crash-free window would make the
    // no-checkpoint arm look spuriously optimal.
    const Seconds mtbf =
        (mtbf_ms > 0 ? mtbf_ms : (tiny ? 60000 : 300000)) / 1000.0;
    const long long job_iters = tiny ? 20000 : 200000;
    const Seconds restart_overhead = 2.0;

    core::SystemConfig base;
    base.system = core::System::Rap;
    base.gpuCount = tiny ? 4 : 8;
    base.iterations = tiny ? 24 : 48;
    base.warmup = 3;
    const auto plan = preproc::makePlan(tiny ? 0 : 1);

    // One crash trace, shared verbatim by every arm. Times are on the
    // composed job timeline; the horizon leaves room for the slow
    // arms to keep absorbing crashes while they thrash.
    sim::FaultSpec faults;
    if (crash_at_ms >= 0) {
        faults.events.push_back(
            sim::FaultEvent::deviceCrash(0, crash_at_ms / 1000.0));
    } else {
        faults.events = sim::makeCrashTrace(
            mtbf, static_cast<std::uint64_t>(fault_seed), 8.0 * mtbf,
            base.gpuCount);
    }

    std::cout << "=== Checkpoint/restore under fail-stop crashes ("
              << base.gpuCount << "x A100) ===\n\n"
              << "MTBF " << formatSeconds(mtbf) << ", "
              << faults.events.size() << " crash(es) in the trace, "
              << job_iters << "-iteration job, restart overhead "
              << formatSeconds(restart_overhead) << "\n\n";

    std::vector<Arm> arms;
    {
        Arm a{"none", "no checkpoint", {}};
        arms.push_back(std::move(a));
    }
    {
        Arm a{"fixed1", "fixed q=1 (naive)", {}};
        a.checkpoint.mode = core::CheckpointMode::FixedInterval;
        a.checkpoint.interval = 1;
        arms.push_back(std::move(a));
    }
    {
        Arm a{"young_daly", "Young-Daly", {}};
        a.checkpoint.mode = core::CheckpointMode::YoungDaly;
        arms.push_back(std::move(a));
    }
    for (auto &arm : arms) {
        arm.checkpoint.mtbf = mtbf;
        arm.checkpoint.restartOverhead = restart_overhead;
        arm.checkpoint.jobIterations = job_iters;
    }

    const auto results = pool.parallelMap<ArmResult>(
        arms.size(), [&](std::size_t i) {
            auto config = base;
            config.checkpoint = arms[i].checkpoint;
            config.faults = faults;
            return ArmResult{
                core::RunRequest(std::move(config))
                    .metrics(metrics, "arm." + arms[i].key)
                    .run(plan)};
        });

    // Useful work is policy-independent: the job's iterations at the
    // no-checkpoint arm's measured checkpoint-free interval.
    const Seconds useful = static_cast<double>(job_iters) *
                           results[0].report.avgIterationLatency;
    AsciiTable table({"policy", "completion (JCT)", "lost work",
                      "ckpt overhead", "recoveries", "goodput"});
    for (std::size_t i = 0; i < arms.size(); ++i) {
        const auto &report = results[i].report;
        table.addRow({arms[i].label, formatSeconds(report.makespan),
                      formatSeconds(report.lostWork),
                      formatSeconds(report.checkpointOverhead),
                      std::to_string(report.recoveries),
                      AsciiTable::num(100.0 * useful / report.makespan,
                                      1) +
                          "%"});
    }
    std::cout << table.render();
    const Seconds yd = results[2].report.makespan;
    std::cout << "Young-Daly vs no checkpoint: "
              << AsciiTable::num(results[0].report.makespan / yd, 3)
              << "x; vs fixed q=1: "
              << AsciiTable::num(results[1].report.makespan / yd, 3)
              << "x (completion ratio, higher = Young-Daly wins)\n";

    if (!report_path.empty()) {
        Json json = Json::object();
        for (std::size_t i = 0; i < arms.size(); ++i)
            json.set(arms[i].key, results[i].report.toJson());
        std::ofstream out(report_path);
        RAP_ASSERT(out.good(), "cannot write report to ",
                   report_path);
        out << json.dump(2) << "\n";
    }
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
