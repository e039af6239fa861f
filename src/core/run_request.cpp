#include "core/run_request.hpp"

namespace rap::core {

ValidationResult
SystemConfig::validate() const
{
    ValidationResult result;

    if (gpuCount < 1)
        result.addError("gpuCount", "need at least one GPU, got " +
                                        std::to_string(gpuCount));
    if (batchPerGpu < 1) {
        result.addError("batchPerGpu",
                        "batch size must be positive, got " +
                            std::to_string(batchPerGpu));
    }
    if (iterations < 1) {
        result.addError("iterations",
                        "need at least one iteration, got " +
                            std::to_string(iterations));
    }
    if (warmup < 0) {
        result.addError("warmup", "warmup cannot be negative, got " +
                                      std::to_string(warmup));
    } else if (iterations >= 1 && iterations <= warmup + 1) {
        result.addError(
            "warmup", "need iterations > warmup + 1 for a steady-state "
                      "window, got iterations=" +
                          std::to_string(iterations) +
                          " warmup=" + std::to_string(warmup));
    }

    if (!gpuSubset.empty() &&
        static_cast<int>(gpuSubset.size()) != gpuCount) {
        result.addError("gpuSubset",
                        "must label every GPU: got " +
                            std::to_string(gpuSubset.size()) +
                            " labels for " + std::to_string(gpuCount) +
                            " GPUs");
    }
    for (std::size_t g = 0; g < gpuSubset.size(); ++g) {
        if (gpuSubset[g] < 0) {
            result.addError("gpuSubset[" + std::to_string(g) + "]",
                            "physical GPU ordinal cannot be negative");
        }
    }

    if (!envelopes.empty() &&
        static_cast<int>(envelopes.size()) != gpuCount) {
        result.addError("envelopes",
                        "must cover every GPU: got " +
                            std::to_string(envelopes.size()) +
                            " envelopes for " +
                            std::to_string(gpuCount) + " GPUs");
    }
    for (std::size_t g = 0; g < envelopes.size(); ++g) {
        const auto &env = envelopes[g];
        if (!(env.sm > 0.0 && env.sm <= 1.0)) {
            result.addError("envelopes[" + std::to_string(g) + "].sm",
                            "share must be in (0, 1]");
        }
        if (!(env.bw > 0.0 && env.bw <= 1.0)) {
            result.addError("envelopes[" + std::to_string(g) + "].bw",
                            "share must be in (0, 1]");
        }
    }

    if (clusterSpec && clusterSpec->gpuCount != gpuCount) {
        result.addError("clusterSpec",
                        "spec describes " +
                            std::to_string(clusterSpec->gpuCount) +
                            " GPUs but gpuCount is " +
                            std::to_string(gpuCount));
    }

    if (rowWiseThreshold < 0) {
        result.addError("rowWiseThreshold",
                        "row-wise threshold cannot be negative");
    }
    if (checkpoint.mode == CheckpointMode::FixedInterval &&
        checkpoint.interval < 1) {
        result.addError("checkpoint.interval",
                        "fixed-interval checkpointing needs an "
                        "interval >= 1 iteration, got " +
                            std::to_string(checkpoint.interval));
    }
    if (checkpoint.mode == CheckpointMode::YoungDaly &&
        !(checkpoint.mtbf > 0.0)) {
        result.addError("checkpoint.mtbf",
                        "Young-Daly intervals need a positive MTBF");
    }
    if (checkpoint.restartOverhead < 0.0) {
        result.addError("checkpoint.restartOverhead",
                        "restart overhead cannot be negative");
    }
    if (checkpoint.jobIterations < 0) {
        result.addError("checkpoint.jobIterations",
                        "job length cannot be negative (0 = this "
                        "run's iteration count)");
    }
    if (inference && checkpoint.mode != CheckpointMode::None) {
        result.addError("inference",
                        "inference serving has no training state to "
                        "checkpoint; disable checkpointing");
    }

    if (faults)
        result.addErrors("faults", faults->validate(gpuCount));

    if (ingest) {
        result.addErrors("ingest", ingest::validateIngestConfig(*ingest));
        if (system == System::TorchArrowCpu) {
            result.addError("ingest",
                            "TorchArrowCpu models its own CPU input "
                            "pipeline; streaming ingest applies to "
                            "the GPU-sharing systems only");
        }
    }

    return result;
}

} // namespace rap::core
