/**
 * @file
 * Quickstart: build a preprocessing plan, then run online DLRM training
 * with RAP and compare it against the ideal (no-preprocessing) upper
 * bound and sequential GPU preprocessing.
 */

#include <iostream>

#include "common/table.hpp"
#include "core/rap.hpp"

int
main()
{
    using namespace rap;

    // 1. A preprocessing plan: Plan 1 = Criteo Terabyte defaults
    //    (FillNull + Logit on dense, FillNull + SigridHash + FirstX on
    //    sparse; 104 operations, Table 3).
    const auto plan = preproc::makePlan(1);
    std::cout << "plan 1: " << plan.graph.nodeCount() << " ops over "
              << plan.graph.schema().featureCount() << " features\n";

    // 2. End-to-end online training on a simulated 4-GPU node.
    core::SystemConfig config;
    config.gpuCount = 4;
    config.batchPerGpu = 4096;

    config.system = core::System::Ideal;
    const auto ideal = core::RunRequest(config).run(plan);

    config.system = core::System::Rap;
    const auto rap = core::RunRequest(config).run(plan);

    config.system = core::System::SequentialGpu;
    const auto sequential = core::RunRequest(config).run(plan);

    AsciiTable table({"system", "iter latency", "throughput",
                      "vs ideal"});
    for (const auto *r : {&ideal, &rap, &sequential}) {
        table.addRow({r->system, formatSeconds(r->avgIterationLatency),
                      formatRate(r->throughput),
                      AsciiTable::num(
                          r->throughput / ideal.throughput * 100.0, 1) +
                          "%"});
    }
    std::cout << table.render();
    return 0;
}
