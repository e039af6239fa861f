/**
 * @file
 * Figure 10: speedup breakdown and optimality analysis.
 *
 * Compares Sequential, MPS, RAP w/o mapping, RAP w/o fusion, RAP and
 * the Ideal case (no preprocessing at all) on the 8-GPU node across
 * Plans 0-3. Paper headlines: RAP w/o mapping and RAP w/o fusion
 * average 1.19x and 1.15x over MPS; full RAP lands within 3.24% of
 * Ideal.
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/rap.hpp"

int
main(int argc, char **argv)
{
    using namespace rap;

    bench::ArgParser args("bench_fig10_breakdown",
                          "Figure 10: speedup breakdown");
    args.parse(argc, argv);
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    const std::vector<core::System> systems = {
        core::System::SequentialGpu, core::System::Mps,
        core::System::RapNoMapping,  core::System::RapNoFusion,
        core::System::Rap,           core::System::Ideal,
    };

    std::cout << "=== Figure 10: speedup breakdown on 8x A100 "
                 "(normalised to Sequential) ===\n";
    AsciiTable table({"plan", "Sequential", "MPS", "RAP w/o mapping",
                      "RAP w/o fusion", "RAP", "Ideal",
                      "RAP vs Ideal"});

    RunningStat no_mapping_vs_mps, no_fusion_vs_mps, rap_vs_ideal,
        rap_vs_sequential;
    for (int plan_id = 0; plan_id <= 3; ++plan_id) {
        const auto plan = preproc::makePlan(plan_id);
        std::map<core::System, double> tput;
        for (auto system : systems) {
            core::SystemConfig config;
            config.system = system;
            config.gpuCount = 8;
            config.batchPerGpu = 4096;
            config.metrics = metrics;
            config.metricsScope = "p" + std::to_string(plan_id) + "." +
                                  core::systemId(system);
            tput[system] = core::RunRequest(config).run(plan).throughput;
        }
        const double seq = tput[core::System::SequentialGpu];
        const double ideal = tput[core::System::Ideal];
        const double rap = tput[core::System::Rap];
        no_mapping_vs_mps.add(tput[core::System::RapNoMapping] /
                              tput[core::System::Mps]);
        no_fusion_vs_mps.add(tput[core::System::RapNoFusion] /
                             tput[core::System::Mps]);
        rap_vs_ideal.add(rap / ideal);
        rap_vs_sequential.add(rap / seq);

        std::vector<std::string> row{"Plan " + std::to_string(plan_id)};
        for (auto system : systems)
            row.push_back(AsciiTable::num(tput[system] / seq, 2) + "x");
        row.push_back(AsciiTable::num(
                          (1.0 - rap / ideal) * 100.0, 2) + "% below");
        table.addRow(row);
    }
    std::cout << table.render() << "\n";

    std::cout << "RAP w/o mapping vs MPS: "
              << AsciiTable::num(no_mapping_vs_mps.mean(), 2)
              << "x (paper 1.19x)\n"
              << "RAP w/o fusion  vs MPS: "
              << AsciiTable::num(no_fusion_vs_mps.mean(), 2)
              << "x (paper 1.15x)\n"
              << "RAP vs Sequential: "
              << AsciiTable::num(rap_vs_sequential.mean(), 2)
              << "x (paper 1.99x)\n"
              << "RAP vs Ideal: "
              << AsciiTable::num((1.0 - rap_vs_ideal.mean()) * 100.0, 2)
              << "% below ideal (paper 3.24%)\n";
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
