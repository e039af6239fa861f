/**
 * @file
 * FleetOptions <-> JSON for the catalog's genesis record. Only the
 * semantic fields travel: a resume rebuilt from this JSON must
 * re-execute the identical run, so everything that shapes scheduling
 * (or the report bytes — tracePrefix flips memoisation and therefore
 * simulationsRun) is here, and runtime attachments (metrics, catalog
 * pointer, stop knobs) are not.
 */

#include "fleet/scheduler.hpp"

namespace rap::fleet {

Json
fleetOptionsToJson(const FleetOptions &options)
{
    Json json = Json::object();
    json.set("placement", options.placement.toJson());
    json.set("node", options.node.toJson());
    json.set("faults", options.faults.toJson());
    json.set("restartOverhead", Json(options.restartOverhead));
    json.set("tracePrefix", Json(options.tracePrefix));
    return json;
}

FleetOptions
fleetOptionsFromJson(const Json &json)
{
    FleetOptions options;
    options.placement =
        PlacementOptions::fromJson(json.at("placement"));
    options.node = sim::ClusterSpec::fromJson(json.at("node"));
    options.faults = sim::FaultSpec::fromJson(json.at("faults"));
    options.restartOverhead = json.at("restartOverhead").asDouble();
    options.tracePrefix = json.at("tracePrefix").asString();
    return options;
}

} // namespace rap::fleet
