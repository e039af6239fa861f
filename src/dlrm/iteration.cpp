#include "dlrm/iteration.hpp"

#include "common/log.hpp"

namespace rap::dlrm {

std::vector<TrainOp>
buildIteration(const DlrmConfig &config, const EmbeddingSharding &sharding,
               int gpu, int gpu_count, const sim::GpuSpec &spec)
{
    RAP_ASSERT(gpu >= 0 && gpu < gpu_count, "gpu ordinal out of range");
    std::vector<TrainOp> ops;
    ops.reserve(kTrainOpCount);
    for (TrainOpKind kind : trainOpOrder()) {
        if (config.inferenceOnly && !isForwardOp(kind))
            continue;
        TrainOp op;
        op.kind = kind;
        op.name = trainOpName(kind);
        op.comm = isCommOp(kind);
        if (op.comm) {
            op.commBytes = commBytesPerGpu(kind, config, gpu_count);
            op.collectiveKind = kind == TrainOpKind::GradAllReduce
                                    ? sim::CollectiveKind::AllReduce
                                    : sim::CollectiveKind::AllToAll;
        } else {
            op.kernel = makeTrainKernel(kind, config, sharding, gpu,
                                        gpu_count, spec);
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

Seconds
iterationExclusiveLatency(const std::vector<TrainOp> &ops,
                          const sim::ClusterSpec &cluster_spec,
                          int gpu_count)
{
    Seconds total = 0.0;
    for (const auto &op : ops) {
        if (op.comm) {
            sim::Engine scratch;
            sim::Collective collective(
                scratch, op.collectiveKind, op.commBytes, gpu_count,
                cluster_spec.nvlinkBandwidth, cluster_spec.nvlinkLatency);
            total += collective.duration();
        } else {
            total += op.kernel.exclusiveLatency +
                     cluster_spec.gpu.kernelLaunchOverhead;
        }
    }
    return total;
}

} // namespace rap::dlrm
