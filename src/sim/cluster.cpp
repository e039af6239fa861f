#include "sim/cluster.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace rap::sim {

ClusterSpec
subsetSpec(const ClusterSpec &full, int gpu_count)
{
    RAP_ASSERT(gpu_count >= 1 && gpu_count <= full.gpuCount,
               "subset must take between 1 and ", full.gpuCount,
               " GPUs, got ", gpu_count);
    ClusterSpec subset = full;
    subset.gpuCount = gpu_count;
    subset.cpuCores = std::max(
        1, full.cpuCores * gpu_count / full.gpuCount);
    return subset;
}

Cluster::Cluster(ClusterSpec spec)
    : Cluster(std::move(spec), {})
{
}

Cluster::Cluster(ClusterSpec spec, std::vector<int> global_gpu_ids)
    : spec_(std::move(spec)), globalIds_(std::move(global_gpu_ids))
{
    RAP_ASSERT(spec_.gpuCount >= 1, "cluster needs at least one GPU");
    if (globalIds_.empty()) {
        for (int g = 0; g < spec_.gpuCount; ++g)
            globalIds_.push_back(g);
    }
    RAP_ASSERT(static_cast<int>(globalIds_.size()) == spec_.gpuCount,
               "subset labels must name every GPU: got ",
               globalIds_.size(), " labels for ", spec_.gpuCount,
               " GPUs");
    devices_.reserve(static_cast<std::size_t>(spec_.gpuCount));
    for (int g = 0; g < spec_.gpuCount; ++g) {
        devices_.push_back(std::make_unique<Device>(
            engine_, spec_.gpu, g, spec_.pcieBandwidth, spec_.pcieLatency,
            spec_.nvlinkBandwidth, spec_.nvlinkLatency));
    }
    host_ = std::make_unique<Host>(engine_, spec_.cpuCores);
}

int
Cluster::globalGpuId(int id) const
{
    RAP_ASSERT(id >= 0 && id < gpuCount(), "device id out of range: ", id);
    return globalIds_[static_cast<std::size_t>(id)];
}

Device &
Cluster::device(int id)
{
    RAP_ASSERT(id >= 0 && id < gpuCount(), "device id out of range: ", id);
    return *devices_[static_cast<std::size_t>(id)];
}

const Device &
Cluster::device(int id) const
{
    RAP_ASSERT(id >= 0 && id < gpuCount(), "device id out of range: ", id);
    return *devices_[static_cast<std::size_t>(id)];
}

void
Cluster::setCollectiveBandwidthScale(double scale)
{
    RAP_ASSERT(scale > 0.0 && scale <= 1.0,
               "fabric bandwidth scale must be in (0, 1]");
    collectiveBandwidthScale_ = scale;
}

void
Cluster::exportMetrics(obs::MetricRegistry &registry,
                       const obs::Labels &base) const
{
    for (int g = 0; g < gpuCount(); ++g) {
        const Device &dev = device(g);
        obs::Labels labels = base;
        labels.set("gpu", std::to_string(globalGpuId(g)));
        registry.counter("sim.device.kernels_launched", labels)
            .inc(dev.kernelsLaunched());
        registry.counter("sim.device.kernels_retired", labels)
            .inc(dev.kernelsRetired());
        registry.counter("sim.device.kernel_retries", labels)
            .inc(dev.kernelRetries());
        registry.gauge("sim.device.contention_stall_seconds", labels)
            .set(dev.contentionStallSeconds());
        registry.gauge("sim.device.retry_backoff_seconds", labels)
            .set(dev.retryBackoffSeconds());
        registry.gauge("sim.device.max_resident_kernels", labels)
            .set(static_cast<double>(dev.maxResidentKernels()));
    }
    registry.counter("sim.engine.events", base)
        .inc(engine_.eventsExecuted());
    registry.gauge("sim.engine.max_queue_depth", base)
        .max(static_cast<double>(engine_.maxQueueDepth()));
    registry.gauge("sim.engine.end_time_seconds", base)
        .max(engine_.now());
}

CollectivePtr
Cluster::makeCollective(CollectiveKind kind, Bytes bytes_per_gpu)
{
    return std::make_shared<Collective>(
        engine_, kind, bytes_per_gpu, gpuCount(),
        spec_.nvlinkBandwidth * collectiveBandwidthScale_,
        spec_.nvlinkLatency);
}

} // namespace rap::sim
