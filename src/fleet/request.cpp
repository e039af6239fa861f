#include "fleet/request.hpp"

#include <cmath>

#include "common/log.hpp"

namespace rap::fleet {

ValidationResult
FleetRequest::validate() const
{
    ValidationResult result;
    const int gpu_count = options_.node.gpuCount;
    if (gpu_count < 1)
        result.addError("node.gpuCount", "node needs at least one GPU");
    if (jobs_.empty())
        result.addError("jobs", "fleet needs at least one job");
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const auto &spec = jobs_[j];
        const std::string field = "jobs[" + std::to_string(j) + "]";
        if (spec.id != static_cast<int>(j)) {
            result.addError(field + ".id",
                            "job ids must be dense and ordered "
                            "(expected " +
                                std::to_string(j) + ", found " +
                                std::to_string(spec.id) + ")");
        }
        if (spec.gpusRequested < 1 ||
            (gpu_count >= 1 && spec.gpusRequested > gpu_count)) {
            result.addError(field + ".gpusRequested",
                            "requests " +
                                std::to_string(spec.gpusRequested) +
                                " GPUs on a " +
                                std::to_string(gpu_count) +
                                "-GPU node");
        }
        if (spec.kind == JobKind::Inference) {
            if (!(spec.sloLatency > 0.0)) {
                result.addError(field + ".sloLatency",
                                "inference jobs need a positive SLO "
                                "latency");
            }
            if (spec.checkpointInterval != 0) {
                result.addError(field + ".checkpointInterval",
                                "inference jobs have no training "
                                "state to checkpoint");
            }
        }
    }
    if (!(options_.restartOverhead >= 0.0) ||
        !std::isfinite(options_.restartOverhead)) {
        result.addError("restartOverhead",
                        "must be finite and non-negative");
    }
    if (!(options_.placement.headroom > 0.0 &&
          options_.placement.headroom <= 1.0)) {
        result.addError("placement.headroom", "must be in (0, 1]");
    }
    if (!(options_.placement.minEnvelope >= 0.0 &&
          options_.placement.minEnvelope <= 1.0)) {
        result.addError("placement.minEnvelope", "must be in [0, 1]");
    }
    if (!(options_.placement.demandScale > 0.0 &&
          options_.placement.demandScale <= 1.0)) {
        result.addError("placement.demandScale", "must be in (0, 1]");
    }
    for (std::size_t e = 0; e < options_.faults.events.size(); ++e) {
        const auto kind = options_.faults.events[e].kind;
        if (kind != sim::FaultKind::SmDegrade &&
            kind != sim::FaultKind::HbmDegrade &&
            kind != sim::FaultKind::DeviceCrash) {
            result.addError("faults.events[" + std::to_string(e) +
                                "].kind",
                            "fleet-scope faults support SmDegrade/"
                            "HbmDegrade/DeviceCrash only (found " +
                                sim::faultKindId(kind) + ")");
        }
    }
    result.addErrors("faults", options_.faults.validate(gpu_count));
    if (options_.stopAfterEvents < 0)
        result.addError("stopAfterEvents", "cannot be negative");
    if (options_.stopAfterEvents > 0 && options_.catalog == nullptr) {
        result.addError("stopAfterEvents",
                        "stopping without a catalog would just lose "
                        "the run");
    }
    return result;
}

FleetReport
FleetRequest::run(ThreadPool *pool)
{
    const auto result = validate();
    if (!result.ok())
        RAP_FATAL("invalid fleet request:\n", result.render());
    FleetScheduler scheduler(jobs_, options_, pool);
    auto report = scheduler.run();
    stopped_ = scheduler.stopped();
    // An abandoned run's report is partial by design; finalizing it
    // would dress it up as a finished one.
    if (!stopped_)
        report.finalize();
    return report;
}

FleetReport
resumeFleet(ctrl::Catalog &catalog, ThreadPool *pool)
{
    const auto &state = catalog.state();
    RAP_ASSERT(state.hasGenesis(),
               "catalog has no genesis record — nothing to resume");
    std::vector<JobSpec> jobs;
    for (const Json &spec : state.genesis.at("jobs").elements())
        jobs.push_back(JobSpec::fromJson(spec));
    // The rebuilt trace and options are input read from disk: they go
    // through the same validation as a fresh request.
    FleetRequest request(std::move(jobs));
    const Json &config = state.genesis.at("config");
    request.options() = fleetOptionsFromJson(config);
    // A genesis written by a build with other option fields cannot
    // re-execute byte-identically: name the field that is lost instead
    // of failing the scheduler's genesis comparison mid-run.
    const Json rebuilt = fleetOptionsToJson(request.options());
    for (const auto &[key, value] : config.members()) {
        const Json *kept = rebuilt.find(key);
        if (kept == nullptr || kept->dump() != value.dump()) {
            RAP_FATAL("catalog genesis field config.", key,
                      " does not round-trip through this build's "
                      "fleet options; was the catalog written by a "
                      "different build?");
        }
    }
    request.options().metrics = catalog.options().metrics;
    request.catalog(&catalog);
    return request.run(pool);
}

} // namespace rap::fleet
