#include "core/capacity.hpp"

#include <algorithm>
#include <numeric>

#include "common/log.hpp"

namespace rap::core {

namespace {

/** Iterations profiled (first is warmup). */
constexpr int kProfileIterations = 6;
/** Capacity discount covering launch overheads and jitter. */
constexpr double kSafetyFactor = 0.92;

} // namespace

Seconds
CapacityProfile::totalCapacity() const
{
    Seconds total = 0.0;
    for (const auto &op : ops)
        total += op.capacity;
    return total;
}

std::vector<std::size_t>
CapacityProfile::byCapacityDescending() const
{
    std::vector<std::size_t> order(ops.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return ops[a].capacity > ops[b].capacity;
                     });
    return order;
}

CapacityProfile
degradeProfile(const CapacityProfile &profile, double sm_capacity,
               double bw_capacity)
{
    RAP_ASSERT(sm_capacity > 0.0 && sm_capacity <= 1.0,
               "SM capacity must be in (0, 1]");
    RAP_ASSERT(bw_capacity > 0.0 && bw_capacity <= 1.0,
               "HBM capacity must be in (0, 1]");
    constexpr double kDemandEps = 1e-9;
    // Matches the starvation floor of the device contention model.
    constexpr double kMinRate = 0.02;

    CapacityProfile degraded = profile;
    Seconds healthy_total = 0.0;
    Seconds degraded_total = 0.0;
    for (auto &op : degraded.ops) {
        const double demand_sm =
            std::clamp(1.0 - op.leftover.sm, 0.0, 1.0);
        const double demand_bw =
            std::clamp(1.0 - op.leftover.bw, 0.0, 1.0);
        double rate = 1.0;
        if (demand_sm > kDemandEps)
            rate = std::min(rate, sm_capacity / demand_sm);
        if (demand_bw > kDemandEps)
            rate = std::min(rate, bw_capacity / demand_bw);
        rate = std::clamp(rate, kMinRate, 1.0);
        healthy_total += op.duration;
        op.duration /= rate;
        op.capacity /= rate;
        op.leftover.sm = std::max(0.0, sm_capacity - demand_sm * rate);
        op.leftover.bw = std::max(0.0, bw_capacity - demand_bw * rate);
        degraded_total += op.duration;
    }
    if (healthy_total > 0.0) {
        degraded.iterationLatency =
            profile.iterationLatency * (degraded_total / healthy_total);
    }
    return degraded;
}

OverlappingCapacityEstimator::OverlappingCapacityEstimator(
    sim::ClusterSpec cluster_spec, dlrm::DlrmConfig config,
    dlrm::EmbeddingSharding sharding)
    : clusterSpec_(std::move(cluster_spec)), config_(std::move(config)),
      sharding_(std::move(sharding))
{
}

std::vector<CapacityProfile>
OverlappingCapacityEstimator::profileAll() const
{
    sim::Cluster cluster(clusterSpec_);
    dlrm::TrainingDriver driver(cluster, config_, sharding_);
    driver.pushIterations(kProfileIterations);
    cluster.run();

    std::vector<CapacityProfile> profiles;
    profiles.reserve(static_cast<std::size_t>(cluster.gpuCount()));
    for (int g = 0; g < cluster.gpuCount(); ++g) {
        CapacityProfile profile;
        const auto &ops = driver.ops(g);
        profile.ops.reserve(ops.size());
        for (std::size_t k = 0; k < ops.size(); ++k) {
            OpCapacity cap;
            cap.name = ops[k].name;
            cap.kind = ops[k].kind;
            cap.comm = ops[k].comm;
            cap.duration = driver.avgOpDuration(g, k);
            if (ops[k].comm) {
                // Collectives keep the GPU's compute nearly idle; DMA
                // engines take a sliver of DRAM bandwidth.
                cap.leftover = sim::ResourceDemand{1.0, 0.9};
            } else {
                cap.leftover = sim::ResourceDemand{
                    1.0 - ops[k].kernel.demand.sm,
                    1.0 - ops[k].kernel.demand.bw};
            }
            cap.capacity = cap.duration * kSafetyFactor;
            profile.ops.push_back(std::move(cap));
        }
        profile.iterationLatency = driver.avgIterationLatency();
        profiles.push_back(std::move(profile));
    }
    return profiles;
}

CapacityProfile
OverlappingCapacityEstimator::profile(int gpu) const
{
    auto all = profileAll();
    RAP_ASSERT(gpu >= 0 && static_cast<std::size_t>(gpu) < all.size(),
               "gpu ordinal out of range");
    return all[static_cast<std::size_t>(gpu)];
}

Seconds
OverlappingCapacityEstimator::probeOverlapLatency(
    const sim::GpuSpec &spec, const sim::KernelDesc &train_kernel,
    const sim::KernelDesc &preproc_kernel, int count)
{
    RAP_ASSERT(count >= 0, "probe kernel count must be >= 0");
    sim::ClusterSpec cluster_spec;
    cluster_spec.gpu = spec;
    cluster_spec.gpuCount = 1;
    sim::Cluster cluster(cluster_spec);

    auto &train_stream = cluster.device(0).newStream("probe.train", 0);
    auto &pre_stream =
        cluster.device(0).newStream("probe.preproc", 1, /*priority=*/1);

    Seconds train_end = 0.0;
    Seconds pre_end = 0.0;
    train_stream.pushKernel(train_kernel, [&] {
        train_end = cluster.engine().now();
    });
    for (int i = 0; i < count; ++i) {
        auto cb = i + 1 == count
                      ? std::function<void()>([&] {
                            pre_end = cluster.engine().now();
                        })
                      : std::function<void()>();
        pre_stream.pushKernel(preproc_kernel, std::move(cb));
    }
    cluster.run();
    return std::max(train_end, pre_end);
}

} // namespace rap::core
