/**
 * @file
 * RunReport serialization: toJson() writes the report artifact under
 * the common/serial.hpp convention (schema token "rap.run_report.v1")
 * from the exact doubles the run computed. It is the single source of
 * truth for report artifacts: benches write it, and CI determinism
 * diffs compare its bytes, never scraped stdout. Reports are
 * write-only; nothing reads one back.
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

// The shared optional-field dialect: "never measured" is an explicit
// null (common/serial.hpp).
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

} // namespace rap::core
