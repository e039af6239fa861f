/**
 * @file
 * Kernel descriptors and the resource-envelope performance model.
 *
 * Every GPU kernel in the simulation — DLRM training layers as well as
 * input-preprocessing kernels — is characterised by a work profile
 * (flops, bytes moved, resident warps). From the profile and a GpuSpec
 * the model derives:
 *  - the exclusive latency: execution time when the kernel runs alone;
 *  - the resource demand: the fraction of SM warp slots and of DRAM
 *    bandwidth it occupies while resident.
 *
 * Co-running kernels whose summed demand stays below 1.0 on every
 * resource proceed at full speed; oversubscription throttles all
 * resident kernels proportionally (see Device). This is the block-level
 * sharing behaviour the paper's Figure 1(c) measures.
 */

#ifndef RAP_SIM_KERNEL_HPP
#define RAP_SIM_KERNEL_HPP

#include <memory>
#include <string>

#include "common/units.hpp"
#include "sim/gpu_spec.hpp"

namespace rap::sim {

/** Raw work profile of a kernel. */
struct KernelProfile
{
    /** Floating-point operations executed. */
    double flops = 0.0;
    /** Bytes moved to/from DRAM. */
    Bytes bytes = 0.0;
    /** Warps resident while the kernel executes. */
    double warps = 0.0;
};

/** Fraction of each GPU resource a kernel occupies while resident. */
struct ResourceDemand
{
    double sm = 0.0; ///< fraction of warp slots
    double bw = 0.0; ///< fraction of DRAM bandwidth

    /** Component-wise sum. */
    ResourceDemand operator+(const ResourceDemand &o) const
    {
        return ResourceDemand{sm + o.sm, bw + o.bw};
    }
};

/**
 * A fully-characterised kernel ready for simulation.
 */
struct KernelDesc
{
    std::string name;
    KernelProfile profile;
    /** Latency when running alone on the GPU. */
    Seconds exclusiveLatency = 0.0;
    /** Resources occupied while resident. */
    ResourceDemand demand;

    /**
     * Build a kernel descriptor from a work profile under @p spec.
     *
     * Exclusive latency is the max of the compute time (flops over the
     * flop rate reachable with the kernel's warp footprint), the memory
     * time (bytes over DRAM bandwidth) and the spec's minimum kernel
     * latency. SM demand is the warp-slot fraction; bandwidth demand is
     * the achieved bytes rate divided by peak bandwidth.
     */
    static KernelDesc fromProfile(std::string name,
                                  const KernelProfile &profile,
                                  const GpuSpec &spec);

    /**
     * Build a kernel directly from a target latency and demand pair.
     * Used by tests and by synthetic probe kernels.
     */
    static KernelDesc synthetic(std::string name, Seconds latency,
                                ResourceDemand demand);
};

/** A descriptor shared by every queued launch of one kernel. */
using KernelPtr = std::shared_ptr<const KernelDesc>;

} // namespace rap::sim

#endif // RAP_SIM_KERNEL_HPP
