/**
 * @file
 * FleetReport serialization: toJson() writes the fleet artifact under
 * the common/serial.hpp convention (schema token
 * "rap.fleet_report.v1"). The CI determinism job diffs these
 * artifacts across thread counts, and the resume gate diffs them
 * across kill/recover cycles, so every field — per-job specs,
 * outcomes, and the aggregates — is serialized from the exact doubles
 * the scheduler computed. Reports are write-only; nothing reads one
 * back.
 *
 * Optional SLO columns serialize as explicit JSON null: "never
 * measured" stays distinct from a measured zero.
 */

#include "fleet/report.hpp"

#include "common/serial.hpp"

namespace rap::fleet {

namespace {

constexpr const char *kFleetReportSchema = "rap.fleet_report.v1";

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

} // namespace rap::fleet
