/**
 * @file
 * Figure 9: end-to-end DLRM training throughput.
 *
 * Reproduces the paper's main result grid: training throughput of
 * TorchArrow (CPU), CUDA-stream, MPS and RAP across 2/4/8 GPUs,
 * preprocessing Plans 0-3 and per-GPU batch sizes 4096/8192. The
 * paper's headline numbers for this figure: RAP averages 17.8x over
 * TorchArrow, 2.01x over CUDA-stream and 1.43x over MPS.
 *
 * Pass a gpu count (2, 4 or 8) as a positional argument to restrict
 * the run; by default all three node sizes are swept (`--tiny` shrinks
 * the grid to 2 GPUs, Plans 0-1, batch 4096 for the CI jobs). `--trace
 * <prefix>` additionally dumps each RAP run's Chrome trace to
 * `<prefix>.g<gpus>.p<plan>.b<batch>.json` for Perfetto inspection,
 * and `--metrics <path>` writes the deterministic metrics snapshot
 * with one `run=g<gpus>.p<plan>.b<batch>.<system>` scope per cell.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/rap.hpp"

namespace {

using namespace rap;

const std::vector<core::System> kSystems = {
    core::System::TorchArrowCpu,
    core::System::CudaStream,
    core::System::Mps,
    core::System::Rap,
};

struct CellResult
{
    std::vector<std::string> row;
    double rapOverTa = 0.0;
    double rapOverStream = 0.0;
    double rapOverMps = 0.0;
};

void
runForGpuCount(int gpus, const std::vector<int> &plan_ids,
               const std::vector<std::int64_t> &batches,
               std::map<std::string, RunningStat> &speedups,
               const std::string &trace_prefix, ThreadPool &pool,
               obs::MetricRegistry *metrics)
{
    std::cout << "=== Figure 9: end-to-end throughput on " << gpus
              << "x A100 (samples/s) ===\n";
    AsciiTable table({"plan", "batch", "TorchArrow", "CUDA stream",
                      "MPS", "RAP", "RAP/TA", "RAP/stream",
                      "RAP/MPS"});

    struct Cell
    {
        int planId = 0;
        std::int64_t batch = 0;
    };
    std::vector<Cell> cells;
    for (int plan_id : plan_ids) {
        for (std::int64_t batch : batches)
            cells.push_back({plan_id, batch});
    }

    const auto results = pool.parallelMap<CellResult>(
        cells.size(), [&](std::size_t i) {
            const auto [plan_id, batch] = cells[i];
            const auto plan = preproc::makePlan(plan_id);
            const std::string cell_scope =
                "g" + std::to_string(gpus) + ".p" +
                std::to_string(plan_id) + ".b" +
                std::to_string(batch);
            std::map<core::System, double> tput;
            for (auto system : kSystems) {
                core::SystemConfig config;
                config.system = system;
                config.gpuCount = gpus;
                config.batchPerGpu = batch;
                config.metrics = metrics;
                config.metricsScope =
                    cell_scope + "." + core::systemId(system);
                if (!trace_prefix.empty() &&
                    system == core::System::Rap) {
                    config.tracePath =
                        trace_prefix + "." + cell_scope + ".json";
                }
                tput[system] = core::RunRequest(config).run(plan).throughput;
            }
            const double rap = tput[core::System::Rap];
            const double ta = tput[core::System::TorchArrowCpu];
            const double stream = tput[core::System::CudaStream];
            const double mps = tput[core::System::Mps];
            CellResult result;
            result.rapOverTa = rap / ta;
            result.rapOverStream = rap / stream;
            result.rapOverMps = rap / mps;
            result.row = {
                "Plan " + std::to_string(plan_id),
                std::to_string(batch),
                formatRate(ta),
                formatRate(stream),
                formatRate(mps),
                formatRate(rap),
                AsciiTable::num(rap / ta, 2) + "x",
                AsciiTable::num(rap / stream, 2) + "x",
                AsciiTable::num(rap / mps, 2) + "x",
            };
            return result;
        });

    for (const auto &result : results) {
        speedups["RAP/TorchArrow"].add(result.rapOverTa);
        speedups["RAP/CUDA-stream"].add(result.rapOverStream);
        speedups["RAP/MPS"].add(result.rapOverMps);
        table.addRow(result.row);
    }
    std::cout << table.render() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(
        "bench_fig09_end_to_end",
        "Figure 9: end-to-end training throughput grid");
    const std::string &gpus_arg =
        args.addPositional("gpus", "restrict to one node size (2/4/8)");
    const std::string &trace_prefix = args.addString(
        "--trace", "", "Chrome-trace JSON output prefix (RAP cells)");
    args.parse(argc, argv);
    ThreadPool pool(args.jobThreads());
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics =
        args.metricsPath().empty() ? nullptr : &registry;

    std::vector<int> gpu_counts = {2, 4, 8};
    std::vector<int> plan_ids = {0, 1, 2, 3};
    std::vector<std::int64_t> batches = {4096, 8192};
    if (args.tiny()) {
        gpu_counts = {2};
        plan_ids = {0, 1};
        batches = {4096};
    }
    if (!gpus_arg.empty())
        gpu_counts = {std::atoi(gpus_arg.c_str())};

    std::map<std::string, RunningStat> speedups;
    bench::WallTimer timer;
    std::uint64_t cells = 0;
    for (int gpus : gpu_counts) {
        runForGpuCount(gpus, plan_ids, batches, speedups, trace_prefix, pool,
                       metrics);
        cells += plan_ids.size() * batches.size() * kSystems.size();
    }
    const double sweep_ms = timer.elapsedMs();

    std::cout << "--- Average speedups (paper: RAP 17.8x over "
                 "TorchArrow, 2.01x over CUDA stream, 1.43x over MPS) "
                 "---\n";
    AsciiTable summary({"comparison", "mean speedup", "min", "max"});
    for (auto &[name, stat] : speedups) {
        summary.addRow({name, AsciiTable::num(stat.mean(), 2) + "x",
                        AsciiTable::num(stat.min(), 2) + "x",
                        AsciiTable::num(stat.max(), 2) + "x"});
    }
    std::cout << summary.render();
    std::cerr << "[wall] fig09_sweep " << AsciiTable::num(sweep_ms, 1)
              << " ms (" << cells << " cells)\n";
    bench::maybeWriteMetrics(args, registry);
    return 0;
}
