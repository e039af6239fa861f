/**
 * @file
 * Capacity-envelope-aware placement policies for the fleet scheduler.
 *
 * Placement chooses which GPUs of the node a queued job runs on.
 * Exclusive policies grant whole devices only (the classic cluster
 * scheduler). RapShared additionally co-locates jobs on GPUs whose
 * resource envelopes have headroom: each resident job reserves its
 * estimated SM/bandwidth demand, and a newcomer may take the leftover
 * slice as its GpuEnvelope — the fleet-level generalisation of RAP's
 * within-job overlapping-capacity sharing (and the spatial-sharing
 * idea ParvaGPU applies across DNN jobs).
 *
 * All policies are deterministic: candidates are ranked by exact
 * (score, gpu-id) order, so equal cluster states always produce equal
 * placements.
 */

#ifndef RAP_FLEET_PLACEMENT_HPP
#define RAP_FLEET_PLACEMENT_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace rap::fleet {

/** How jobs map onto GPUs. */
enum class PlacementPolicy {
    /** Whole free GPUs, lowest ordinals first. */
    ExclusiveFirstFit,
    /** Whole free GPUs, healthiest (largest envelope) first. */
    ExclusiveBestFit,
    /** Envelope sharing: co-locate onto GPUs with headroom. */
    RapShared,
};

/** @return Human-readable policy name. */
std::string policyName(PlacementPolicy policy);

/** @return Stable machine token ("rap_shared") for JSON / labels. */
std::string policyId(PlacementPolicy policy);

/** Inverse of policyId; RAP_FATALs on unknown tokens. */
PlacementPolicy policyFromId(const std::string &id);

/** Fleet-side view of one physical GPU's occupancy. */
struct GpuState
{
    /** False after a fail-stop crash: permanently unplaceable. */
    bool alive = true;
    /** Current SM capacity (1.0 healthy; fleet faults shrink it). */
    double healthSm = 1.0;
    /** Current HBM-bandwidth capacity. */
    double healthBw = 1.0;
    /** SM share reserved by resident jobs. */
    double smUsed = 0.0;
    /** Bandwidth share reserved by resident jobs. */
    double bwUsed = 0.0;
    /** Jobs currently placed on this GPU. */
    int residents = 0;

    /** @return Unreserved SM share still available. */
    double freeSm() const
    {
        return healthSm > smUsed ? healthSm - smUsed : 0.0;
    }

    /** @return Unreserved bandwidth share still available. */
    double freeBw() const
    {
        return healthBw > bwUsed ? healthBw - bwUsed : 0.0;
    }

    /**
     * @return SM share still reservable under an admission bound of
     * @p headroom x the *current* (possibly degraded) health — never
     * negative, even when a degradation dropped health below what
     * resident jobs already reserved. Admission and the min-envelope
     * check both derive from current health through these helpers, so
     * a degraded GPU can never pass headroom on stale full-health
     * capacity.
     */
    double reservableSm(double headroom) const
    {
        const double cap = headroom * healthSm;
        return cap > smUsed ? cap - smUsed : 0.0;
    }

    /** @return Bandwidth share reservable under @p headroom. */
    double reservableBw(double headroom) const
    {
        const double cap = headroom * healthBw;
        return cap > bwUsed ? cap - bwUsed : 0.0;
    }
};

/** A job's estimated per-GPU resource demand (from a reference run). */
struct DemandEstimate
{
    double sm = 1.0;
    double bw = 1.0;
};

/** A concrete placement decision. */
struct Placement
{
    /** Physical GPU ordinals granted, ascending. */
    std::vector<int> gpuIds;
    /** Resource slice granted on each (aligned with gpuIds). */
    std::vector<core::GpuEnvelope> envelopes;

    /** JsonSerializable: the catalog's placement-decision record. */
    Json toJson() const;
};

/** Placement tuning. */
struct PlacementOptions
{
    PlacementPolicy policy = PlacementPolicy::RapShared;
    /**
     * Co-location admission bound: a GPU's total reserved share
     * (incumbents + newcomer demand) may not exceed this fraction of
     * its healthy envelope.
     */
    double headroom = 0.98;
    /**
     * Smallest slice worth granting: co-locating a job onto less than
     * this share slows it more than queueing would.
     */
    double minEnvelope = 0.30;
    /**
     * Interference-aware discount applied to demand when reserving:
     * a job's time-averaged SM/BW utilisation overstates what
     * co-located jobs need *simultaneously*, because their compute
     * bursts interleave on the device (the reason MPS-style spatial
     * sharing works, and the premise of RAP's own within-job
     * overlap). Reserving the full average would never admit two
     * training jobs to one GPU; reserving scale x demand admits
     * pairs whose combined discounted demand fits under headroom.
     * 1.0 recovers strict reservation.
     */
    double demandScale = 0.60;

    /** JsonSerializable: persisted in the catalog's genesis record. */
    Json toJson() const;
    static PlacementOptions fromJson(const Json &json);
};

/**
 * Try to place a job needing @p gpus_requested GPUs with demand
 * @p demand on the cluster state @p gpus. Returns std::nullopt when
 * the policy cannot grant the full request; never grants partially.
 * Does not mutate @p gpus — the caller applies reservations.
 */
std::optional<Placement> placeJob(const PlacementOptions &options,
                                  const std::vector<GpuState> &gpus,
                                  int gpus_requested,
                                  const DemandEstimate &demand);

} // namespace rap::fleet

#endif // RAP_FLEET_PLACEMENT_HPP
