/**
 * @file
 * RunReport serialization: toJson()/fromJson() round-trip exactly
 * under the common/serial.hpp JsonSerializable convention (schema token
 * "rap.run_report.v1") and are the single source of truth for report
 * artifacts (bench output, CI determinism diffs read these, never
 * scraped stdout).
 */

#include "core/pipeline.hpp"

#include "common/log.hpp"
#include "common/serial.hpp"

namespace rap::core {

namespace {

constexpr const char *kRunReportSchema = "rap.run_report.v1";

constexpr std::pair<System, const char *> kSystemIds[] = {
    {System::Ideal, "ideal"},
    {System::Rap, "rap"},
    {System::RapNoMapping, "rap_no_mapping"},
    {System::RapNoFusion, "rap_no_fusion"},
    {System::HorizontalFusionOnly, "horizontal_fusion"},
    {System::HybridRap, "hybrid_rap"},
    {System::CudaStream, "cuda_stream"},
    {System::Mps, "mps"},
    {System::SequentialGpu, "sequential_gpu"},
    {System::TorchArrowCpu, "torcharrow_cpu"},
};

// The shared optional-field dialect: absent and null both read back
// as "never measured" (common/serial.hpp).
using serial::getOptionalNumber;
using serial::setOptionalNumber;

} // namespace

std::string
systemId(System system)
{
    for (const auto &[sys, id] : kSystemIds) {
        if (sys == system)
            return id;
    }
    RAP_PANIC("unknown system");
}

std::optional<System>
systemFromId(const std::string &id)
{
    for (const auto &[sys, token] : kSystemIds) {
        if (id == token)
            return sys;
    }
    return std::nullopt;
}

Json
RunReport::toJson() const
{
    Json json = Json::object();
    serial::stampSchema(json, kRunReportSchema);
    json.set("system", Json(system));
    json.set("gpuCount", Json(gpuCount));
    json.set("batchPerGpu", Json(batchPerGpu));
    json.set("avgIterationLatency", Json(avgIterationLatency));
    json.set("throughput", Json(throughput));
    json.set("avgSmUtil", Json(avgSmUtil));
    json.set("avgBwUtil", Json(avgBwUtil));
    json.set("avgGpuBusy", Json(avgGpuBusy));
    json.set("p2pBytes", Json(p2pBytes));
    json.set("preprocKernelsPerIter", Json(preprocKernelsPerIter));
    json.set("predictedExposed", Json(predictedExposed));
    json.set("preprocLatencyPerIter", Json(preprocLatencyPerIter));
    json.set("makespan", Json(makespan));
    json.set("replans", Json(replans));
    json.set("kernelRetries", Json(kernelRetries));
    json.set("retryBackoffSeconds", Json(retryBackoffSeconds));
    json.set("lostWork", Json(lostWork));
    json.set("checkpointOverhead", Json(checkpointOverhead));
    json.set("recoveries", Json(recoveries));
    json.set("ingestEvents", Json(ingestEvents));
    json.set("ingestDropped", Json(ingestDropped));
    json.set("ingestSpilled", Json(ingestSpilled));
    json.set("ingestBatches", Json(ingestBatches));
    json.set("ingestStagingP99", Json(ingestStagingP99));
    json.set("ingestLastReadyAt", Json(ingestLastReadyAt));
    setOptionalNumber(json, "submittedAt", submittedAt);
    setOptionalNumber(json, "startedAt", startedAt);
    setOptionalNumber(json, "finishedAt", finishedAt);
    return json;
}

RunReport
RunReport::fromJson(const Json &json)
{
    using serial::getNumber;
    serial::requireSchema(json, kRunReportSchema);
    RunReport report;
    report.system = json.at("system").asString();
    report.gpuCount = serial::getInt(json, "gpuCount");
    report.batchPerGpu = serial::getInt64(json, "batchPerGpu");
    report.avgIterationLatency = getNumber(json, "avgIterationLatency");
    report.throughput = getNumber(json, "throughput");
    report.avgSmUtil = getNumber(json, "avgSmUtil");
    report.avgBwUtil = getNumber(json, "avgBwUtil");
    report.avgGpuBusy = getNumber(json, "avgGpuBusy");
    report.p2pBytes = getNumber(json, "p2pBytes");
    report.preprocKernelsPerIter = getNumber(json, "preprocKernelsPerIter");
    report.predictedExposed = getNumber(json, "predictedExposed");
    report.preprocLatencyPerIter = getNumber(json, "preprocLatencyPerIter");
    report.makespan = getNumber(json, "makespan");
    report.replans = serial::getInt(json, "replans");
    report.kernelRetries = serial::getUint64(json, "kernelRetries");
    report.retryBackoffSeconds = getNumber(json, "retryBackoffSeconds");
    report.lostWork = getNumber(json, "lostWork");
    report.checkpointOverhead = getNumber(json, "checkpointOverhead");
    report.recoveries = serial::getInt(json, "recoveries");
    report.ingestEvents = serial::getUint64(json, "ingestEvents");
    report.ingestDropped = serial::getUint64(json, "ingestDropped");
    report.ingestSpilled = serial::getUint64(json, "ingestSpilled");
    report.ingestBatches = serial::getUint64(json, "ingestBatches");
    report.ingestStagingP99 = getNumber(json, "ingestStagingP99");
    report.ingestLastReadyAt = getNumber(json, "ingestLastReadyAt");
    report.submittedAt = getOptionalNumber(json, "submittedAt");
    report.startedAt = getOptionalNumber(json, "startedAt");
    report.finishedAt = getOptionalNumber(json, "finishedAt");
    return report;
}

} // namespace rap::core
