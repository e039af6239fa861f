/**
 * @file
 * Deterministic fault injection for the simulated cluster.
 *
 * A FaultSpec is a seeded schedule of degradation events: a GPU's SM
 * capacity or HBM bandwidth drops at a given simulated time, an
 * interconnect link slows, or kernel launches start failing
 * transiently inside a time window. A FaultInjector armed on a
 * Cluster applies the schedule through the discrete-event engine, so
 * every fault scenario is reproducible from (spec, seed) alone.
 *
 * Transient kernel failures retry through the device's regular launch
 * path with capped exponential backoff: a failed attempt occupies the
 * device for the detection fraction of its work, waits out the
 * backoff, then relaunches (charging launch overhead again). The
 * final allowed attempt always succeeds, so simulations terminate.
 */

#ifndef RAP_SIM_FAULT_HPP
#define RAP_SIM_FAULT_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "common/validation.hpp"

namespace rap::sim {

class Cluster;

/** What a fault event degrades. */
enum class FaultKind {
    /** SM capacity drops to `factor` (thermal throttle, dead SMs). */
    SmDegrade,
    /** HBM bandwidth drops to `factor`. */
    HbmDegrade,
    /** An interconnect link's bandwidth drops to `factor`. */
    LinkSlow,
    /** Kernel launches fail with `probability` inside [time, until). */
    TransientKernel,
    /** One GPU goes permanently offline (fail-stop). */
    DeviceCrash,
};

/** @return Stable machine token ("sm_degrade") for JSON / labels. */
std::string faultKindId(FaultKind kind);

/** Inverse of faultKindId; RAP_FATALs on unknown tokens. */
FaultKind faultKindFromId(const std::string &id);

/** Which link a LinkSlow event targets. */
enum class FaultLink {
    /** The device's host-to-device (PCIe) link. */
    HostLink,
    /** The device's peer egress (NVLink) link. */
    PeerLink,
    /** Every peer link plus the collective fabric (NVSwitch). */
    Fabric,
};

/** @return Stable machine token ("fabric") for JSON / labels. */
std::string faultLinkId(FaultLink link);

/** Inverse of faultLinkId; RAP_FATALs on unknown tokens. */
FaultLink faultLinkFromId(const std::string &id);

/** Retry behaviour for transient kernel failures. */
struct RetryPolicy
{
    /** Launch attempts per kernel; the last one always succeeds. */
    int maxAttempts = 4;
    /** Backoff before retry k is backoffBase * 2^(k-1), capped. */
    Seconds backoffBase = 20e-6;
    Seconds backoffCap = 200e-6;
    /** Fraction of the kernel's work a failed attempt still runs. */
    double detectFraction = 0.25;

    Json toJson() const;
    static RetryPolicy fromJson(const Json &json);
};

/** One scheduled degradation. */
struct FaultEvent
{
    FaultKind kind = FaultKind::SmDegrade;
    /** Target GPU ordinal; -1 = every GPU (the fabric for LinkSlow). */
    int device = -1;
    /** Simulated time the event takes effect. */
    Seconds time = 0.0;
    /** TransientKernel only: end of the failure window. */
    Seconds until = std::numeric_limits<Seconds>::infinity();
    /** Capacity / bandwidth multiplier in (0, 1]. */
    double factor = 1.0;
    /** TransientKernel only: per-launch failure probability. */
    double probability = 0.0;
    /** LinkSlow only: which link slows. */
    FaultLink link = FaultLink::Fabric;

    static FaultEvent smDegrade(int device, Seconds time, double factor);
    static FaultEvent hbmDegrade(int device, Seconds time,
                                 double factor);
    static FaultEvent linkSlow(int device, FaultLink link, Seconds time,
                               double factor);
    static FaultEvent transientKernel(int device, Seconds from,
                                      Seconds until,
                                      double probability);
    static FaultEvent deviceCrash(int device, Seconds time);

    /** @return True for DeviceCrash. */
    bool isFailStop() const;

    /**
     * JsonSerializable (common/serial.hpp convention): exact doubles,
     * the infinite `until` window as JSON null.
     */
    Json toJson() const;
    static FaultEvent fromJson(const Json &json);
};

/** A complete seeded fault scenario. */
struct FaultSpec
{
    std::vector<FaultEvent> events;
    /** Seed of the transient-failure draws. */
    std::uint64_t seed = 0x5eedfa11u;
    RetryPolicy retry;

    /** @return True when any event is a TransientKernel fault. */
    bool hasTransientFaults() const;

    /** @return A copy with every fail-stop event removed. */
    FaultSpec degradationOnly() const;

    /** @return Sorted times of the fail-stop events. */
    std::vector<Seconds> failStopTimes() const;

    /**
     * Check every event against a @p gpu_count-GPU target and the
     * retry policy; fields are named "events[i].<field>" and
     * "retry.<field>". The one fault-spec check: both request APIs
     * fold it in under "faults", and FaultInjector::arm refuses a
     * spec that fails it.
     */
    ValidationResult validate(int gpu_count) const;

    /** Seeds serialize as decimal strings (exact for all 64 bits). */
    Json toJson() const;
    static FaultSpec fromJson(const Json &json);
};

/**
 * Draw a seeded fail-stop crash trace: inter-crash gaps are
 * exponential with mean @p mtbf and each crash hits a uniformly drawn
 * GPU in [0, gpu_count). Events stop at @p horizon, so the trace is
 * finite and every recovery composition terminates. Deterministic in
 * (mtbf, seed, horizon, gpu_count).
 */
std::vector<FaultEvent> makeCrashTrace(Seconds mtbf, std::uint64_t seed,
                                       Seconds horizon, int gpu_count);

/**
 * Applies a FaultSpec to a Cluster.
 *
 * The injector must outlive the cluster's simulation run: devices keep
 * a pointer to it for the transient-failure draws.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultSpec spec)
        : spec_(std::move(spec)), rng_(spec_.seed)
    {
    }

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Schedule the spec's events on @p cluster's engine and install
     * the transient-failure hook on every device. Call once, before
     * the simulation runs; fatal when the spec fails validate().
     */
    void arm(Cluster &cluster);

    /**
     * Decide whether launch attempt @p attempt (1-based) of a kernel
     * on @p device fails at time @p now. The final allowed attempt
     * never fails. Draws are consumed in engine order, so equal seeds
     * yield equal failure schedules.
     */
    bool shouldFailLaunch(Seconds now, int device, int attempt);

    /** @return Backoff before the retry that follows attempt @p n. */
    Seconds backoff(int attempt) const;

    const RetryPolicy &retry() const { return spec_.retry; }
    const FaultSpec &spec() const { return spec_; }

    /** @return Total transient failures injected so far. */
    std::uint64_t injectedFailures() const { return injectedFailures_; }

  private:
    FaultSpec spec_;
    Rng rng_;
    std::uint64_t injectedFailures_ = 0;
    bool armed_ = false;
};

} // namespace rap::sim

#endif // RAP_SIM_FAULT_HPP
