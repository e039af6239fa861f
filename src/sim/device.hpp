/**
 * @file
 * The simulated GPU: stream ownership, the kernel-launch path, and the
 * block-level proportional-share contention model.
 *
 * Contention model. Every resident kernel occupies a ResourceDemand
 * (fraction of SM warp slots, fraction of DRAM bandwidth). Resources
 * are granted by priority class: within a class, kernels share
 * proportionally (when the class's summed demand exceeds what is
 * available, every kernel in it scales by the oversubscription
 * factor); lower classes only receive what higher classes leave
 * unused. Equal-priority streams therefore model MPS-style fair
 * sharing — co-running stays free until summed demand crosses 1.0,
 * after which everyone slows (the paper's Figure 1c behaviour) —
 * while a lower-priority stream models CUDA stream priorities, whose
 * kernels are starved during heavy training layers instead of
 * slowing the trainer.
 */

#ifndef RAP_SIM_DEVICE_HPP
#define RAP_SIM_DEVICE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/gpu_spec.hpp"
#include "sim/interconnect.hpp"
#include "sim/kernel.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"

namespace rap::sim {

class FaultInjector;

/**
 * One simulated GPU.
 */
class Device
{
  public:
    /**
     * @param engine The simulation engine.
     * @param spec GPU hardware description.
     * @param id Device ordinal within the cluster.
     * @param h2d_bandwidth Host-to-device link bandwidth.
     * @param h2d_latency Host-to-device per-transfer latency.
     * @param p2p_bandwidth Peer egress (NVLink) bandwidth.
     * @param p2p_latency Peer per-transfer latency.
     */
    Device(Engine &engine, GpuSpec spec, int id,
           BytesPerSecond h2d_bandwidth, Seconds h2d_latency,
           BytesPerSecond p2p_bandwidth, Seconds p2p_latency);

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /**
     * Create a stream on this device.
     *
     * @param name Diagnostic name.
     * @param launch_group Kernel-launch serialisation group (streams
     *        of one process share a group).
     * @param priority 0 = highest; lower-priority streams' kernels
     *        only receive the resources higher classes leave unused.
     */
    Stream &newStream(std::string name, int launch_group = 0,
                      int priority = 0);

    /**
     * Launch @p desc from @p stream: the launch occupies the stream's
     * launch-group thread for the spec's launch overhead, after which
     * the kernel becomes resident; @p done fires at kernel completion.
     */
    void launchKernel(const Stream &stream, KernelPtr desc,
                      std::function<void()> done);

    /** Submit a copy on the H2D or P2P link; @p done at completion. */
    void submitCopy(CopyKind kind, Bytes bytes, std::function<void()> done);

    int id() const { return id_; }
    const GpuSpec &spec() const { return spec_; }
    Trace &trace() { return trace_; }
    const Trace &trace() const { return trace_; }

    /** @return Number of kernels currently resident. */
    std::size_t residentCount() const { return resident_.size(); }

    /** @return Summed demand of the currently-resident kernels. */
    ResourceDemand residentDemand() const;

    /** @return H2D link (for tests and statistics). */
    LinkServer &h2dLink() { return h2d_; }

    /** @return P2P egress link (for tests and statistics). */
    LinkServer &p2pLink() { return p2p_; }

    /**
     * Degrade the device's SM capacity to @p capacity in (0, 1] of
     * the healthy device (thermal throttle, disabled SMs). Takes
     * effect immediately: resident kernels re-share the reduced
     * envelope from the current instant.
     */
    void degradeSm(double capacity);

    /** Degrade the device's HBM bandwidth to @p capacity in (0, 1]. */
    void degradeBw(double capacity);

    /**
     * Fail-stop the device: every resident kernel is discarded without
     * firing its completion callback, and all future launches and
     * copies are silently dropped. Work chained behind a discarded
     * kernel therefore stalls forever — exactly what a crashed GPU
     * does to its process — and recovery must come from outside the
     * simulation (checkpoint restore, fleet requeue).
     */
    void crash();

    /** @return False once crash() has been called. */
    bool isOnline() const { return !offline_; }

    /** @return Kernels discarded in-flight by crash(). */
    std::uint64_t discardedKernels() const { return discardedKernels_; }

    /** @return Current SM capacity (1.0 = healthy). */
    double smCapacity() const { return smCapacity_; }

    /** @return Current HBM-bandwidth capacity (1.0 = healthy). */
    double bwCapacity() const { return bwCapacity_; }

    /** Install the transient-kernel-failure hook (may be nullptr). */
    void setFaultInjector(FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** @return Failed launch attempts retried on this device. */
    std::uint64_t kernelRetries() const { return kernelRetries_; }

    /** @return Total retry-backoff delay charged to the timeline. */
    Seconds retryBackoffSeconds() const { return retryBackoff_; }

    /** @return Kernels launched (every attempt, including retries). */
    std::uint64_t kernelsLaunched() const { return kernelsLaunched_; }

    /** @return Kernels retired (ran to completion). */
    std::uint64_t kernelsRetired() const { return kernelsRetired_; }

    /**
     * @return Summed contention stretch of retired kernels: actual
     *         duration minus exclusive latency, i.e. time lost to
     *         sharing the device (or to degraded capacity).
     */
    Seconds contentionStallSeconds() const { return stallSeconds_; }

    /** @return Largest number of simultaneously-resident kernels. */
    std::size_t maxResidentKernels() const { return maxResident_; }

  private:
    struct Resident
    {
        KernelPtr desc;
        Seconds remaining = 0.0;
        double rate = 1.0;
        Seconds start = 0.0;
        const Stream *stream = nullptr;
        int priority = 0;
        std::function<void()> done;
    };

    /** A launch attempt waiting out the launch overhead of its group. */
    struct PendingLaunch
    {
        const Stream *stream = nullptr;
        KernelPtr desc;
        std::function<void()> done;
        int attempt = 1;
    };

    /**
     * One kernel-launch serialisation group. Its admits are scheduled
     * at non-decreasing times in push order, and the engine breaks
     * ties by push order too, so they fire first in, first out and
     * the scheduled admit names only the group.
     */
    struct LaunchGroup
    {
        int id = 0;
        Seconds freeAt = 0.0;
        /** Launches in admit order; the first `head` are taken. */
        std::vector<PendingLaunch> pending;
        std::size_t head = 0;
    };

    /** Advance resident kernels' progress up to the current time. */
    void advanceToNow();

    /** Recompute rates, retire finished kernels, arm the next wake. */
    void refresh();

    void addResident(KernelPtr desc, const Stream &stream,
                     std::function<void()> done);

    /** Occupy @p launch's launch group, then admit it. */
    void queueLaunch(PendingLaunch launch);

    /**
     * Take launch group @p group's oldest pending launch and make it
     * resident, or fail it and chain the retry.
     */
    void admitKernel(std::size_t group);

    Engine &engine_;
    GpuSpec spec_;
    int id_;
    std::vector<std::unique_ptr<Stream>> streams_;
    std::vector<Resident> resident_;
    std::vector<LaunchGroup> launchGroups_;
    /** Priority classes of the residents; refresh's scratch. */
    std::vector<int> classes_;
    /** Fires at the next retirement; see refresh(). */
    TimerId wake_;
    Seconds lastUpdate_ = 0.0;
    double currentSmUsage_ = 0.0;
    double currentBwUsage_ = 0.0;
    double smCapacity_ = 1.0;
    double bwCapacity_ = 1.0;
    bool offline_ = false;
    std::uint64_t discardedKernels_ = 0;
    FaultInjector *injector_ = nullptr;
    std::uint64_t kernelRetries_ = 0;
    Seconds retryBackoff_ = 0.0;
    std::uint64_t kernelsLaunched_ = 0;
    std::uint64_t kernelsRetired_ = 0;
    Seconds stallSeconds_ = 0.0;
    std::size_t maxResident_ = 0;
    LinkServer h2d_;
    LinkServer p2p_;
    Trace trace_;
};

} // namespace rap::sim

#endif // RAP_SIM_DEVICE_HPP
