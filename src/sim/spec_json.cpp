/**
 * @file
 * JSON round-trips for the hardware and fault vocabulary (the
 * common/serial.hpp JsonSerializable convention). These are what lets
 * the durable fleet catalog persist a run's full configuration —
 * node spec and fault schedule included — and rebuild it bit-exactly
 * on resume: every double goes through the shortest-round-trip writer
 * and 64-bit seeds travel as decimal strings, so
 * fromJson(toJson(x)) == x for every field.
 */

#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "sim/fault.hpp"
#include "sim/gpu_spec.hpp"

namespace rap::sim {

namespace {

constexpr std::pair<FaultKind, const char *> kFaultKindIds[] = {
    {FaultKind::SmDegrade, "sm_degrade"},
    {FaultKind::HbmDegrade, "hbm_degrade"},
    {FaultKind::LinkSlow, "link_slow"},
    {FaultKind::TransientKernel, "transient_kernel"},
    {FaultKind::DeviceCrash, "device_crash"},
};

constexpr std::pair<FaultLink, const char *> kFaultLinkIds[] = {
    {FaultLink::HostLink, "host_link"},
    {FaultLink::PeerLink, "peer_link"},
    {FaultLink::Fabric, "fabric"},
};

/** 64-bit values as decimal strings: exact beyond double's 53 bits. */
Json
uint64Json(std::uint64_t value)
{
    return Json(std::to_string(value));
}

std::uint64_t
uint64FromJson(const Json &json)
{
    return std::stoull(json.asString());
}

} // namespace

std::string
faultKindId(FaultKind kind)
{
    for (const auto &[k, id] : kFaultKindIds) {
        if (k == kind)
            return id;
    }
    RAP_PANIC("unknown fault kind");
}

FaultKind
faultKindFromId(const std::string &id)
{
    for (const auto &[k, token] : kFaultKindIds) {
        if (id == token)
            return k;
    }
    RAP_FATAL("unknown fault-kind id '", id, "'");
}

std::string
faultLinkId(FaultLink link)
{
    for (const auto &[l, id] : kFaultLinkIds) {
        if (l == link)
            return id;
    }
    RAP_PANIC("unknown fault link");
}

FaultLink
faultLinkFromId(const std::string &id)
{
    for (const auto &[l, token] : kFaultLinkIds) {
        if (id == token)
            return l;
    }
    RAP_FATAL("unknown fault-link id '", id, "'");
}

Json
RetryPolicy::toJson() const
{
    Json json = Json::object();
    json.set("maxAttempts", Json(maxAttempts));
    json.set("backoffBase", Json(backoffBase));
    json.set("backoffCap", Json(backoffCap));
    json.set("detectFraction", Json(detectFraction));
    return json;
}

RetryPolicy
RetryPolicy::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("RetryPolicy JSON must be an object");
    RetryPolicy policy;
    policy.maxAttempts =
        static_cast<int>(json.at("maxAttempts").asDouble());
    policy.backoffBase = json.at("backoffBase").asDouble();
    policy.backoffCap = json.at("backoffCap").asDouble();
    policy.detectFraction = json.at("detectFraction").asDouble();
    return policy;
}

Json
FaultEvent::toJson() const
{
    Json json = Json::object();
    json.set("kind", Json(faultKindId(kind)));
    json.set("device", Json(device));
    json.set("time", Json(time));
    // JSON has no infinity literal; the open-ended window is null.
    json.set("until", std::isinf(until) ? Json() : Json(until));
    json.set("factor", Json(factor));
    json.set("probability", Json(probability));
    json.set("link", Json(faultLinkId(link)));
    return json;
}

FaultEvent
FaultEvent::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("FaultEvent JSON must be an object");
    FaultEvent event;
    event.kind = faultKindFromId(json.at("kind").asString());
    event.device = static_cast<int>(json.at("device").asDouble());
    event.time = json.at("time").asDouble();
    const Json &until = json.at("until");
    event.until = until.isNull()
                      ? std::numeric_limits<Seconds>::infinity()
                      : until.asDouble();
    event.factor = json.at("factor").asDouble();
    event.probability = json.at("probability").asDouble();
    event.link = faultLinkFromId(json.at("link").asString());
    return event;
}

Json
FaultSpec::toJson() const
{
    Json json = Json::object();
    Json event_array = Json::array();
    for (const auto &event : events)
        event_array.push(event.toJson());
    json.set("events", std::move(event_array));
    json.set("seed", uint64Json(seed));
    json.set("retry", retry.toJson());
    return json;
}

FaultSpec
FaultSpec::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("FaultSpec JSON must be an object");
    FaultSpec spec;
    for (const Json &event : json.at("events").elements())
        spec.events.push_back(FaultEvent::fromJson(event));
    spec.seed = uint64FromJson(json.at("seed"));
    spec.retry = RetryPolicy::fromJson(json.at("retry"));
    return spec;
}

Json
GpuSpec::toJson() const
{
    Json json = Json::object();
    json.set("name", Json(name));
    json.set("peakFlops", Json(peakFlops));
    json.set("dramBandwidth", Json(dramBandwidth));
    json.set("smCount", Json(smCount));
    json.set("warpSlotsPerSm", Json(warpSlotsPerSm));
    json.set("kernelLaunchOverhead", Json(kernelLaunchOverhead));
    json.set("minKernelLatency", Json(minKernelLatency));
    return json;
}

GpuSpec
GpuSpec::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("GpuSpec JSON must be an object");
    GpuSpec spec;
    spec.name = json.at("name").asString();
    spec.peakFlops = json.at("peakFlops").asDouble();
    spec.dramBandwidth = json.at("dramBandwidth").asDouble();
    spec.smCount = static_cast<int>(json.at("smCount").asDouble());
    spec.warpSlotsPerSm =
        static_cast<int>(json.at("warpSlotsPerSm").asDouble());
    spec.kernelLaunchOverhead =
        json.at("kernelLaunchOverhead").asDouble();
    spec.minKernelLatency = json.at("minKernelLatency").asDouble();
    return spec;
}

Json
ClusterSpec::toJson() const
{
    Json json = Json::object();
    json.set("gpu", gpu.toJson());
    json.set("gpuCount", Json(gpuCount));
    json.set("nvlinkBandwidth", Json(nvlinkBandwidth));
    json.set("nvlinkLatency", Json(nvlinkLatency));
    json.set("pcieBandwidth", Json(pcieBandwidth));
    json.set("pcieLatency", Json(pcieLatency));
    json.set("cpuCores", Json(cpuCores));
    return json;
}

ClusterSpec
ClusterSpec::fromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("ClusterSpec JSON must be an object");
    ClusterSpec spec;
    spec.gpu = GpuSpec::fromJson(json.at("gpu"));
    spec.gpuCount = static_cast<int>(json.at("gpuCount").asDouble());
    spec.nvlinkBandwidth = json.at("nvlinkBandwidth").asDouble();
    spec.nvlinkLatency = json.at("nvlinkLatency").asDouble();
    spec.pcieBandwidth = json.at("pcieBandwidth").asDouble();
    spec.pcieLatency = json.at("pcieLatency").asDouble();
    spec.cpuCores = static_cast<int>(json.at("cpuCores").asDouble());
    return spec;
}

} // namespace rap::sim
