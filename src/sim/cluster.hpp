/**
 * @file
 * The simulated training node: engine + GPUs + host CPU + interconnect.
 */

#ifndef RAP_SIM_CLUSTER_HPP
#define RAP_SIM_CLUSTER_HPP

#include <memory>
#include <vector>

#include "sim/device.hpp"
#include "sim/engine.hpp"
#include "sim/gpu_spec.hpp"
#include "sim/host.hpp"
#include "sim/interconnect.hpp"

namespace rap::obs {
class Labels;
class MetricRegistry;
}

namespace rap::sim {

/**
 * Carve a @p gpu_count-GPU subset view out of @p full: per-GPU
 * resources are unchanged, while shared host resources (CPU cores)
 * scale with the subset's share of the node. The fleet scheduler uses
 * this to run one job's simulation on the slice of the cluster its
 * placement assigned (fleet/scheduler.hpp).
 */
ClusterSpec subsetSpec(const ClusterSpec &full, int gpu_count);

/**
 * A complete simulated multi-GPU training node (e.g. a DGX-A100).
 *
 * Owns the discrete-event engine, one Device per GPU, the Host CPU
 * pool, and manufactures collectives spanning the GPUs.
 */
class Cluster
{
  public:
    /** Build a node from @p spec. */
    explicit Cluster(ClusterSpec spec);

    /**
     * Build a subset view: the node's GPUs are a slice of a larger
     * physical cluster, with @p global_gpu_ids naming the physical
     * ordinal behind each local device. Only labelling (trace export,
     * diagnostics) changes; simulation behaviour is identical to the
     * plain constructor.
     */
    Cluster(ClusterSpec spec, std::vector<int> global_gpu_ids);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    Engine &engine() { return engine_; }
    const ClusterSpec &spec() const { return spec_; }

    int gpuCount() const { return static_cast<int>(devices_.size()); }

    Device &device(int id);
    const Device &device(int id) const;

    /** @return Physical GPU ordinal behind local device @p id. */
    int globalGpuId(int id) const;

    Host &host() { return *host_; }

    /**
     * Create a single-use collective over all GPUs.
     *
     * @param kind Collective flavour.
     * @param bytes_per_gpu Payload contributed by each GPU.
     */
    CollectivePtr makeCollective(CollectiveKind kind, Bytes bytes_per_gpu);

    /**
     * Scale the NVSwitch fabric bandwidth used by collectives created
     * after the call (fault injection; see sim/fault.hpp).
     */
    void setCollectiveBandwidthScale(double scale);

    /** Run the simulation until all queued work drains. */
    void run() { engine_.run(); }

    /**
     * Dump the node's simulation statistics into @p registry: per-GPU
     * kernel/launch/retry counters, contention-stall and max-residency
     * gauges (labelled with the physical GPU ordinal), and engine
     * queue statistics. Call after the simulation has drained; all
     * values are simulation-derived, so the export is deterministic.
     *
     * @param base Labels merged into every instrument — callers that
     *        share one registry across runs (sweep benches) pass their
     *        `run=` scope here so gauges stay run-private.
     */
    void exportMetrics(obs::MetricRegistry &registry,
                       const obs::Labels &base) const;

  private:
    ClusterSpec spec_;
    Engine engine_;
    std::vector<int> globalIds_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unique_ptr<Host> host_;
    double collectiveBandwidthScale_ = 1.0;
};

} // namespace rap::sim

#endif // RAP_SIM_CLUSTER_HPP
