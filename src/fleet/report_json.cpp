/**
 * @file
 * FleetReport serialization: toJson()/fromJson() round-trip exactly
 * under the common/serial.hpp JsonSerializable convention (schema token
 * "rap.fleet_report.v1"). The CI determinism job diffs these
 * artifacts across thread counts, and the resume gate diffs them
 * across kill/recover cycles, so every field — per-job specs,
 * outcomes, and the aggregates — is serialized from the exact doubles
 * the scheduler computed.
 *
 * Optional SLO columns serialize as explicit JSON null and read back
 * through the absent-tolerant helpers: "never measured" round-trips
 * as std::nullopt, distinct from a measured zero.
 */

#include "fleet/report.hpp"

#include "common/log.hpp"
#include "common/serial.hpp"

namespace rap::fleet {

namespace {

constexpr const char *kFleetReportSchema = "rap.fleet_report.v1";

using serial::getOptionalNumber;
using serial::setOptionalNumber;

Json
outcomeJson(const JobOutcome &outcome)
{
    Json json = Json::object();
    json.set("spec", outcome.spec.toJson());
    json.set("firstStart", Json(outcome.firstStart));
    json.set("finish", Json(outcome.finish));
    json.set("placements", Json(outcome.placements));
    json.set("requeues", Json(outcome.requeues));
    json.set("crashRequeues", Json(outcome.crashRequeues));
    json.set("serviceTime", Json(outcome.serviceTime));
    json.set("lostWork", Json(outcome.lostWork));
    Json gpus = Json::array();
    for (int id : outcome.lastGpus)
        gpus.push(Json(id));
    json.set("lastGpus", std::move(gpus));
    Json demand = Json::object();
    demand.set("sm", Json(outcome.demand.sm));
    demand.set("bw", Json(outcome.demand.bw));
    json.set("demand", std::move(demand));
    json.set("report", outcome.report.toJson());
    if (outcome.serve) {
        Json serve = Json::object();
        serve.set("requests", Json(outcome.serve->requests));
        serve.set("batches", Json(outcome.serve->batches));
        serve.set("attained", Json(outcome.serve->attained));
        serve.set("sloLatency", Json(outcome.serve->sloLatency));
        serve.set("p50", Json(outcome.serve->p50));
        serve.set("p95", Json(outcome.serve->p95));
        serve.set("p99", Json(outcome.serve->p99));
        json.set("serve", std::move(serve));
    } else {
        json.set("serve", Json());
    }
    return json;
}

JobOutcome
outcomeFromJson(const Json &json)
{
    if (!json.isObject())
        RAP_FATAL("JobOutcome JSON must be an object");
    JobOutcome outcome;
    outcome.spec = JobSpec::fromJson(json.at("spec"));
    outcome.firstStart = json.at("firstStart").asDouble();
    outcome.finish = json.at("finish").asDouble();
    outcome.placements = serial::getInt(json, "placements");
    outcome.requeues = serial::getInt(json, "requeues");
    outcome.crashRequeues = serial::getInt(json, "crashRequeues");
    outcome.serviceTime = json.at("serviceTime").asDouble();
    outcome.lostWork = json.at("lostWork").asDouble();
    for (const Json &id : json.at("lastGpus").elements())
        outcome.lastGpus.push_back(static_cast<int>(id.asDouble()));
    const Json &demand = json.at("demand");
    outcome.demand.sm = demand.at("sm").asDouble();
    outcome.demand.bw = demand.at("bw").asDouble();
    outcome.report = core::RunReport::fromJson(json.at("report"));
    const Json *serve_json = json.find("serve");
    if (serve_json != nullptr && !serve_json->isNull()) {
        rap::serve::SloStats stats;
        stats.requests = serial::getUint64(*serve_json, "requests");
        stats.batches = serial::getUint64(*serve_json, "batches");
        stats.attained = serial::getUint64(*serve_json, "attained");
        stats.sloLatency = serve_json->at("sloLatency").asDouble();
        stats.p50 = serve_json->at("p50").asDouble();
        stats.p95 = serve_json->at("p95").asDouble();
        stats.p99 = serve_json->at("p99").asDouble();
        outcome.serve = stats;
    }
    return outcome;
}

} // namespace

Json
FleetReport::toJson() const
{
    Json json = Json::object();
    serial::stampSchema(json, kFleetReportSchema);
    json.set("policy", Json(policyId(policy)));
    json.set("gpuCount", Json(gpuCount));
    Json job_array = Json::array();
    for (const auto &job : jobs)
        job_array.push(outcomeJson(job));
    json.set("jobs", std::move(job_array));
    json.set("makespan", Json(makespan));
    json.set("requeues", Json(requeues));
    json.set("crashRequeues", Json(crashRequeues));
    json.set("simulationsRun", Json(simulationsRun));
    json.set("busyGpuSeconds", Json(busyGpuSeconds));
    json.set("catalogDegraded", Json(catalogDegraded));
    json.set("meanJct", Json(meanJct));
    json.set("p50Jct", Json(p50Jct));
    json.set("p95Jct", Json(p95Jct));
    json.set("maxJct", Json(maxJct));
    json.set("meanQueueingDelay", Json(meanQueueingDelay));
    json.set("clusterSmUtil", Json(clusterSmUtil));
    json.set("clusterBwUtil", Json(clusterBwUtil));
    json.set("gpuOccupancy", Json(gpuOccupancy));
    json.set("lostWork", Json(lostWork));
    json.set("goodputSeconds", Json(goodputSeconds));
    json.set("serveRequests", Json(serveRequests));
    json.set("serveBatches", Json(serveBatches));
    json.set("serveAttained", Json(serveAttained));
    setOptionalNumber(json, "serveAttainment", serveAttainment);
    setOptionalNumber(json, "serveGoodputRps", serveGoodputRps);
    setOptionalNumber(json, "serveP50Latency", serveP50Latency);
    setOptionalNumber(json, "serveP95Latency", serveP95Latency);
    setOptionalNumber(json, "serveP99Latency", serveP99Latency);
    return json;
}

FleetReport
FleetReport::fromJson(const Json &json)
{
    serial::requireSchema(json, kFleetReportSchema);
    FleetReport report;
    report.policy = policyFromId(json.at("policy").asString());
    report.gpuCount = serial::getInt(json, "gpuCount");
    for (const Json &job : json.at("jobs").elements())
        report.jobs.push_back(outcomeFromJson(job));
    report.makespan = json.at("makespan").asDouble();
    report.requeues = serial::getInt(json, "requeues");
    report.crashRequeues = serial::getInt(json, "crashRequeues");
    report.simulationsRun = serial::getInt(json, "simulationsRun");
    report.busyGpuSeconds = json.at("busyGpuSeconds").asDouble();
    report.catalogDegraded = json.at("catalogDegraded").asBool();
    report.meanJct = json.at("meanJct").asDouble();
    report.p50Jct = json.at("p50Jct").asDouble();
    report.p95Jct = json.at("p95Jct").asDouble();
    report.maxJct = json.at("maxJct").asDouble();
    report.meanQueueingDelay =
        json.at("meanQueueingDelay").asDouble();
    report.clusterSmUtil = json.at("clusterSmUtil").asDouble();
    report.clusterBwUtil = json.at("clusterBwUtil").asDouble();
    report.gpuOccupancy = json.at("gpuOccupancy").asDouble();
    report.lostWork = json.at("lostWork").asDouble();
    report.goodputSeconds = json.at("goodputSeconds").asDouble();
    report.serveRequests = serial::getUint64(json, "serveRequests");
    report.serveBatches = serial::getUint64(json, "serveBatches");
    report.serveAttained = serial::getUint64(json, "serveAttained");
    // Absent and null both mean "never measured": these columns only
    // exist for traces with inference jobs, and defaulting them to
    // zero would fabricate a measurement.
    report.serveAttainment = getOptionalNumber(json, "serveAttainment");
    report.serveGoodputRps = getOptionalNumber(json, "serveGoodputRps");
    report.serveP50Latency = getOptionalNumber(json, "serveP50Latency");
    report.serveP95Latency = getOptionalNumber(json, "serveP95Latency");
    report.serveP99Latency = getOptionalNumber(json, "serveP99Latency");
    return report;
}

} // namespace rap::fleet
