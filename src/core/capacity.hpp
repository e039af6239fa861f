/**
 * @file
 * The Overlapping Capacity Estimator (paper §5.1).
 *
 * For every DLRM training operation the estimator profiles (a) its
 * standalone duration and (b) the GPU resources left over while it is
 * resident. Under the latency-based preprocessing-overhead abstraction,
 * the overlapping capacity of an operation — the maximum standalone
 * preprocessing latency that can execute concurrently without
 * extending total latency — equals its duration (discounted by a
 * safety margin for launch overheads), provided the co-running
 * preprocessing kernel's resource demand fits in the leftover. The
 * leftover envelope is what the resource-aware sharding checks against.
 *
 * The estimator also exposes a direct co-run probe used to validate
 * the abstraction (paper Fig. 5b/5c).
 */

#ifndef RAP_CORE_CAPACITY_HPP
#define RAP_CORE_CAPACITY_HPP

#include <string>
#include <vector>

#include "dlrm/trainer.hpp"
#include "sim/cluster.hpp"

namespace rap::core {

/** Capacity record of one training operation. */
struct OpCapacity
{
    std::string name;
    dlrm::TrainOpKind kind = dlrm::TrainOpKind::EmbeddingLookup;
    bool comm = false;
    /** Profiled standalone duration. */
    Seconds duration = 0.0;
    /** Resources available while the op is resident (1 - demand). */
    sim::ResourceDemand leftover;
    /** Overlappable standalone preprocessing latency. */
    Seconds capacity = 0.0;
};

/** Per-GPU capacity profile for one training iteration. */
struct CapacityProfile
{
    std::vector<OpCapacity> ops;
    /** Standalone per-iteration training latency. */
    Seconds iterationLatency = 0.0;

    /** @return Sum of all op capacities. */
    Seconds totalCapacity() const;

    /** @return Op indices sorted by capacity, largest first. */
    std::vector<std::size_t> byCapacityDescending() const;
};

/**
 * Re-derive a capacity profile for a degraded device (the online
 * replanning path; see sim/fault.hpp).
 *
 * @p sm_capacity and @p bw_capacity are the device's current resource
 * envelopes in (0, 1] of the healthy device. Each op slows by the
 * contention model's rate (its demand squeezed into the shrunk
 * envelope), its overlap window grows with its duration, and its
 * leftover becomes what the degraded device still has to give while
 * the op is resident. iterationLatency scales with the summed op
 * slowdown. Healthy capacities return the profile unchanged.
 */
CapacityProfile degradeProfile(const CapacityProfile &profile,
                               double sm_capacity, double bw_capacity);

/**
 * Profiles a DLRM configuration on the simulated cluster and produces
 * per-op capacity profiles for every GPU.
 */
class OverlappingCapacityEstimator
{
  public:
    OverlappingCapacityEstimator(sim::ClusterSpec cluster_spec,
                                 dlrm::DlrmConfig config,
                                 dlrm::EmbeddingSharding sharding);

    /** Profile GPU @p gpu (runs a standalone-training simulation). */
    CapacityProfile profile(int gpu) const;

    /** Profile all GPUs in one simulation run. */
    std::vector<CapacityProfile> profileAll() const;

    /**
     * Direct co-run probe: the makespan when @p count copies of
     * @p preproc_kernel co-run (on a second stream) with
     * @p train_kernel starting together on one GPU.
     */
    static Seconds probeOverlapLatency(
        const sim::GpuSpec &spec, const sim::KernelDesc &train_kernel,
        const sim::KernelDesc &preproc_kernel, int count);

  private:
    sim::ClusterSpec clusterSpec_;
    dlrm::DlrmConfig config_;
    dlrm::EmbeddingSharding sharding_;
};

} // namespace rap::core

#endif // RAP_CORE_CAPACITY_HPP
