#include "fleet/placement.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rap::fleet {

namespace {

/** Candidate GPU with its deterministic ranking score. */
struct Candidate
{
    int id = 0;
    double score = 0.0; // smaller ranks first
};

std::optional<Placement>
pickTop(std::vector<Candidate> candidates, int count,
        const std::vector<GpuState> &gpus, bool shared)
{
    if (static_cast<int>(candidates.size()) < count)
        return std::nullopt;
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         if (a.score != b.score)
                             return a.score < b.score;
                         return a.id < b.id;
                     });
    candidates.resize(static_cast<std::size_t>(count));
    Placement placement;
    for (const auto &c : candidates)
        placement.gpuIds.push_back(c.id);
    std::sort(placement.gpuIds.begin(), placement.gpuIds.end());
    for (int id : placement.gpuIds) {
        const auto &gpu = gpus[static_cast<std::size_t>(id)];
        core::GpuEnvelope env;
        env.sm = shared ? gpu.freeSm() : gpu.healthSm;
        env.bw = shared ? gpu.freeBw() : gpu.healthBw;
        placement.envelopes.push_back(env);
    }
    return placement;
}

} // namespace

std::string
policyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::ExclusiveFirstFit:
        return "exclusive first-fit";
      case PlacementPolicy::ExclusiveBestFit:
        return "exclusive best-fit";
      case PlacementPolicy::RapShared:
        return "RAP envelope-shared";
    }
    RAP_PANIC("unknown placement policy");
}

std::string
policyId(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::ExclusiveFirstFit:
        return "exclusive_first_fit";
      case PlacementPolicy::ExclusiveBestFit:
        return "exclusive_best_fit";
      case PlacementPolicy::RapShared:
        return "rap_shared";
    }
    RAP_PANIC("unknown placement policy");
}

Json
Placement::toJson() const
{
    Json json = Json::object();
    Json ids = Json::array();
    for (int id : gpuIds)
        ids.push(Json(id));
    json.set("gpuIds", std::move(ids));
    Json envs = Json::array();
    for (const auto &env : envelopes) {
        Json entry = Json::object();
        entry.set("sm", Json(env.sm));
        entry.set("bw", Json(env.bw));
        envs.push(std::move(entry));
    }
    json.set("envelopes", std::move(envs));
    return json;
}

Json
PlacementOptions::toJson() const
{
    Json json = Json::object();
    json.set("policy", Json(policyId(policy)));
    json.set("headroom", Json(headroom));
    json.set("minEnvelope", Json(minEnvelope));
    json.set("demandScale", Json(demandScale));
    return json;
}

PlacementOptions
PlacementOptions::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("PlacementOptions JSON must be an object");
    PlacementOptions options;
    options.policy = policyFromId(json.at("policy").asString());
    options.headroom = json.at("headroom").asDouble();
    options.minEnvelope = json.at("minEnvelope").asDouble();
    options.demandScale = json.at("demandScale").asDouble();
    return options;
}

PlacementPolicy
policyFromId(const std::string &id)
{
    if (id == "exclusive_first_fit")
        return PlacementPolicy::ExclusiveFirstFit;
    if (id == "exclusive_best_fit")
        return PlacementPolicy::ExclusiveBestFit;
    if (id == "rap_shared")
        return PlacementPolicy::RapShared;
    RAP_FATAL("unknown placement-policy id '", id, "'");
}

std::optional<Placement>
placeJob(const PlacementOptions &options,
         const std::vector<GpuState> &gpus, int gpus_requested,
         const DemandEstimate &demand)
{
    RAP_ASSERT(gpus_requested >= 1, "job needs at least one GPU");
    if (gpus_requested > static_cast<int>(gpus.size()))
        return std::nullopt;

    std::vector<Candidate> candidates;
    switch (options.policy) {
      case PlacementPolicy::ExclusiveFirstFit:
      case PlacementPolicy::ExclusiveBestFit:
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            const auto &gpu = gpus[g];
            if (!gpu.alive || gpu.residents > 0)
                continue;
            const bool best_fit =
                options.policy == PlacementPolicy::ExclusiveBestFit;
            // First-fit ranks by ordinal alone; best-fit prefers the
            // healthiest devices so degraded GPUs are used last.
            const double score =
                best_fit ? -(gpu.healthSm + gpu.healthBw) : 0.0;
            candidates.push_back({static_cast<int>(g), score});
        }
        return pickTop(std::move(candidates), gpus_requested, gpus,
                       /*shared=*/false);

      case PlacementPolicy::RapShared:
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            const auto &gpu = gpus[g];
            if (!gpu.alive)
                continue;
            // Admission: the newcomer's discounted reservation must
            // fit in what is still reservable under the headroom
            // bound, and the slice it would run in must be worth
            // having. Both checks go through the clamped reservable*
            // helpers, so they share one notion of capacity — the
            // *current* (possibly degraded) health minus incumbent
            // reservations — instead of the headroom bound seeing
            // degraded health while the envelope floor read raw
            // free share.
            const double reservable_sm =
                gpu.reservableSm(options.headroom);
            const double reservable_bw =
                gpu.reservableBw(options.headroom);
            if (options.demandScale * demand.sm > reservable_sm ||
                options.demandScale * demand.bw > reservable_bw) {
                continue;
            }
            if (reservable_sm < options.minEnvelope ||
                reservable_bw < options.minEnvelope) {
                continue;
            }
            // Prefer the largest feasible envelope: a job takes whole
            // free GPUs when they exist (running at full speed, same
            // as exclusive) and squeezes into the roomiest leftover
            // slice only when the alternative is queueing. Packing
            // tighter than that trades the newcomer's speed for
            // nothing while free devices sit idle.
            candidates.push_back(
                {static_cast<int>(g), -(gpu.freeSm() + gpu.freeBw())});
        }
        return pickTop(std::move(candidates), gpus_requested, gpus,
                       /*shared=*/true);
    }
    RAP_PANIC("unknown placement policy");
}

} // namespace rap::fleet
