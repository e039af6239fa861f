/**
 * @file
 * Figure 11 + Table 4: effectiveness of horizontal fusion and
 * resource-aware overlapping.
 *
 * Fixed DLRM (Plan 1 model), preprocessing workload grown by adding
 * NGram operations. Three settings:
 *  (1) Baseline       — offload to GPUs, no fusion, no scheduling;
 *  (2) Horizontal Fusion — fusion only, still launched eagerly;
 *  (3) RAP (Fusion + Scheduling) — full resource-aware co-running.
 *
 * Each curve's turning point is the first workload where the
 * iteration latency exceeds the no-preprocessing latency by >10%
 * (paper: Baseline turns first, Fusion later, RAP last). Table 4
 * reports GPU and SM utilisation at each setting's turning point.
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/rap.hpp"

int
main(int argc, char **argv)
{
    using namespace rap;

    bench::ArgParser args("bench_fig11_fusion_scheduling",
                          "Figure 11 + Table 4: fusion/scheduling");
    args.parse(argc, argv);
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    const std::vector<int> ngram_counts =
        args.tiny() ? std::vector<int>{0, 832, 6656}
                    : std::vector<int>{0,    104,  208,  416,  832,
                                       1664, 2496, 3328, 4992, 6656};
    const std::vector<core::System> systems = {
        core::System::CudaStream,          // Baseline
        core::System::HorizontalFusionOnly,
        core::System::Rap,
    };

    std::cout << "=== Figure 11: training latency vs preprocessing "
                 "workload (8x A100, Plan 1 + N extra NGram ops) "
                 "===\n";

    std::map<core::System, std::vector<double>> latency_ms;
    std::map<core::System, std::vector<core::RunReport>> reports;
    for (int count : ngram_counts) {
        auto plan = preproc::makePlan(1);
        if (count > 0)
            preproc::addNgramStress(plan, count);
        for (auto system : systems) {
            core::SystemConfig config;
            config.system = system;
            config.gpuCount = 8;
            config.batchPerGpu = 4096;
            config.metrics = metrics;
            config.metricsScope = "n" + std::to_string(count) + "." +
                                  core::systemId(system);
            const auto report = core::RunRequest(config).run(plan);
            latency_ms[system].push_back(report.avgIterationLatency *
                                         1e3);
            reports[system].push_back(report);
        }
    }

    AsciiTable table({"#extra NGram ops", "Baseline (ms)",
                      "Horizontal Fusion (ms)", "RAP (ms)"});
    for (std::size_t i = 0; i < ngram_counts.size(); ++i) {
        table.addRow({std::to_string(ngram_counts[i]),
                      AsciiTable::num(
                          latency_ms[core::System::CudaStream][i], 3),
                      AsciiTable::num(
                          latency_ms[core::System::
                                         HorizontalFusionOnly][i],
                          3),
                      AsciiTable::num(latency_ms[core::System::Rap][i],
                                      3)});
    }
    std::cout << table.render() << "\n";

    // Turning points: latency exceeds the unloaded latency by >10%.
    auto turningPoint = [&](core::System system) {
        const auto &series = latency_ms[system];
        const double base = series.front();
        for (std::size_t i = 0; i < series.size(); ++i) {
            if (series[i] > 1.10 * base)
                return i;
        }
        return series.size() - 1;
    };

    std::cout << "--- turning points (latency +10%) ---\n";
    AsciiTable turns({"setting", "turning point (#NGram ops)"});
    std::map<core::System, std::size_t> turning;
    for (auto system : systems) {
        turning[system] = turningPoint(system);
        turns.addRow({core::systemName(system),
                      std::to_string(
                          ngram_counts[turning[system]])});
    }
    std::cout << turns.render();
    std::cout << "expected ordering: Baseline earliest, Horizontal "
                 "Fusion later, RAP last\n\n";

    std::cout << "=== Table 4: GPU and SM utilisation at the turning "
                 "point ===\n";
    AsciiTable util({"setting", "avg GPU util (%)", "avg SM util (%)"});
    for (auto system : systems) {
        const auto &report = reports[system][turning[system]];
        util.addRow({core::systemName(system),
                     AsciiTable::num(report.avgGpuBusy * 100, 1),
                     AsciiTable::num(report.avgSmUtil * 100, 1)});
    }
    std::cout << util.render()
              << "(paper: Baseline 77.6/59.0, Horizontal Fusion "
                 "79.3/66.7, RAP 92.8/80.3)\n";
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
