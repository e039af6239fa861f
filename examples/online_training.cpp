/**
 * @file
 * Online DLRM training at full scale: sweep every system the paper
 * evaluates on an 8-GPU node and print the Figure-9/10-style
 * comparison, including the trained ML latency predictor in the loop
 * (instead of the oracle cost model).
 *
 * Usage: online_training [plan_id=1] [gpus=8] [batch=4096]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "core/rap.hpp"

int
main(int argc, char **argv)
{
    using namespace rap;

    const int plan_id = argc > 1 ? std::atoi(argv[1]) : 1;
    const int gpus = argc > 2 ? std::atoi(argv[2]) : 8;
    const std::int64_t batch = argc > 3 ? std::atoll(argv[3]) : 4096;

    const auto plan = preproc::makePlan(plan_id);
    std::cout << "online DLRM training on " << gpus << "x A100, "
              << data::datasetPresetName(plan.spec.dataset) << ", plan "
              << plan_id << " (" << plan.graph.nodeCount()
              << " preprocessing ops), batch " << batch << "/GPU\n\n";

    // Offline phase: train the preprocessing-latency predictor once
    // (the paper's step 1) and hand it to the online optimiser.
    std::cout << "training the latency predictor (offline phase)...\n";
    core::PredictorTrainOptions predictor_options;
    predictor_options.totalSamples = 6000;
    const auto predictor = core::LatencyPredictor::trainOffline(
        sim::a100Spec(), predictor_options);
    for (const auto &cat : predictor.report().categories) {
        std::cout << "  " << cat.name << ": "
                  << AsciiTable::num(cat.within10 * 100.0, 1)
                  << "% within 10%\n";
    }
    std::cout << "\n";

    const core::System systems[] = {
        core::System::TorchArrowCpu, core::System::SequentialGpu,
        core::System::CudaStream,    core::System::Mps,
        core::System::RapNoMapping,  core::System::RapNoFusion,
        core::System::Rap,           core::System::Ideal,
    };

    AsciiTable table({"system", "iter latency", "throughput",
                      "vs ideal", "SM util", "preproc kernels/iter"});
    double ideal_tput = 0.0;
    std::vector<core::RunReport> reports;
    for (auto system : systems) {
        core::SystemConfig config;
        config.system = system;
        config.gpuCount = gpus;
        config.batchPerGpu = batch;
        config.predictor = &predictor;
        if (system == core::System::TorchArrowCpu) {
            config.iterations = 30;
            config.warmup = 8;
        }
        reports.push_back(core::RunRequest(config).run(plan));
    }
    ideal_tput = reports.back().throughput;
    for (const auto &report : reports) {
        table.addRow({report.system,
                      formatSeconds(report.avgIterationLatency),
                      formatRate(report.throughput),
                      AsciiTable::num(
                          report.throughput / ideal_tput * 100.0, 1) +
                          "%",
                      AsciiTable::num(report.avgSmUtil * 100.0, 1) +
                          "%",
                      AsciiTable::num(report.preprocKernelsPerIter,
                                      1)});
    }
    std::cout << table.render();
    std::cout << "\nRAP hides the preprocessing behind training; the "
                 "sequential and CPU pipelines expose it fully.\n";
    return 0;
}
